package transport

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tlt/internal/packet"
)

// naiveSet is a reference model for RangeSet.
type naiveSet map[int64]bool

func (n naiveSet) add(start, end int64) int64 {
	var fresh int64
	for i := start; i < end; i++ {
		if !n[i] {
			n[i] = true
			fresh++
		}
	}
	return fresh
}

func TestRangeSetBasic(t *testing.T) {
	var s RangeSet
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	if got := s.Add(10, 20); got != 10 {
		t.Fatalf("Add returned %d, want 10", got)
	}
	if got := s.Add(15, 25); got != 5 {
		t.Fatalf("overlapping Add returned %d, want 5", got)
	}
	if s.Len() != 1 {
		t.Fatalf("expected merged single block, got %d", s.Len())
	}
	if !s.Contains(10) || !s.Contains(24) || s.Contains(25) || s.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if got := s.NextUncovered(10); got != 25 {
		t.Fatalf("NextUncovered(10) = %d, want 25", got)
	}
	if got := s.NextUncovered(5); got != 5 {
		t.Fatalf("NextUncovered(5) = %d, want 5", got)
	}
	if got := s.Total(); got != 15 {
		t.Fatalf("Total = %d, want 15", got)
	}
	if got := s.Max(); got != 25 {
		t.Fatalf("Max = %d, want 25", got)
	}
}

func TestRangeSetAdjacentMerge(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Add(10, 20) // adjacent: must merge
	if s.Len() != 1 {
		t.Fatalf("adjacent blocks not merged: %d blocks", s.Len())
	}
	s.Add(30, 40)
	s.Add(20, 30) // bridges
	if s.Len() != 1 {
		t.Fatalf("bridge not merged: %v", s.r)
	}
}

func TestRangeSetTrimBelow(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	s.TrimBelow(25)
	if s.Contains(24) || !s.Contains(25) || !s.Contains(45) {
		t.Fatalf("TrimBelow wrong: %v", s.r)
	}
	if got := s.Total(); got != 15 {
		t.Fatalf("Total after trim = %d, want 15", got)
	}
	s.TrimBelow(100)
	if !s.Empty() {
		t.Fatal("TrimBelow(100) should empty the set")
	}
}

func TestRangeSetBlocksOrder(t *testing.T) {
	var s RangeSet
	s.Add(40, 50)
	s.Add(0, 10)
	s.Add(20, 30)
	top := s.AppendBlocks(nil, 2)
	if len(top) != 2 || top[0].Start != 40 || top[1].Start != 20 {
		t.Fatalf("AppendBlocks(nil, 2) = %v, want highest first", top)
	}
	full := s.AppendBlocks(top[:1], 5)
	if len(full) != 4 || full[0].Start != 40 || full[1].Start != 40 || full[3].Start != 0 {
		t.Fatalf("AppendBlocks onto one block = %v, want it kept and all three after it", full)
	}
}

// blocksBefore is RangeSet.Blocks as it was before AppendBlocks replaced
// it (for max > 0): a fresh slice per call.
func blocksBefore(s *RangeSet, max int) []packet.SackBlock {
	if max >= len(s.r) {
		out := make([]packet.SackBlock, len(s.r))
		copy(out, s.r)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	out := make([]packet.SackBlock, 0, max)
	for i := len(s.r) - 1; i >= 0 && len(out) < max; i-- {
		out = append(out, s.r[i])
	}
	return out
}

// TestAppendBlocksEqualsBlocks: on random sets, the blocks an ACK carries
// — order and truncation — are the ones the allocating form reported.
func TestAppendBlocksEqualsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truncated := 0
	for round := 0; round < 200; round++ {
		var s RangeSet
		for n := rng.Intn(14); n > 0; n-- {
			start := int64(rng.Intn(400))
			s.Add(start, start+1+int64(rng.Intn(12)))
		}
		for _, max := range []int{1, 3, 4, 8} {
			var pkt packet.Packet
			got, want := s.AppendBlocks(pkt.SackBuf(nil), max), blocksBefore(&s, max)
			if !slices.Equal(got, want) {
				t.Fatalf("set %v: AppendBlocks(%d) = %v, Blocks gave %v", s.r, max, got, want)
			}
			if len(got) < s.Len() {
				truncated++
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no set held more blocks than max: truncation not exercised")
	}
}

// TestAckSackBlocksAllocateNothing: the SACK blocks of an ACK built on a
// recycled packet go into an extension from the packet's Pool, and Put
// takes it back: the next packet carries no blocks and holds nothing.
func TestAckSackBlocksAllocateNothing(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	s.Add(50, 60)
	pool := packet.NewPool()
	ack := func() {
		pkt := pool.Get()
		pkt.SetSack(s.AppendBlocks(pkt.SackBuf(pool), packet.SackBufBlocks))
		if len(pkt.Sack()) != 3 {
			t.Fatalf("ACK carries %v", pkt.Sack())
		}
		pool.Put(pkt)
	}
	ack() // the first use makes the packet and its extension
	if allocs := testing.AllocsPerRun(100, ack); allocs != 0 {
		t.Fatalf("an ACK with 3 SACK blocks on a recycled packet allocated %v times", allocs)
	}
	pkt := pool.Get()
	if pkt.Sack() != nil || pool.ExtsOut() != 0 || len(pkt.SackBuf(pool)) != 0 {
		t.Fatalf("a recycled packet came back with Sack %v, %d extensions out", pkt.Sack(), pool.ExtsOut())
	}
}

func TestRangeSetCoveredWithin(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if got := s.CoveredWithin(0, 100); got != 20 {
		t.Fatalf("CoveredWithin(0,100) = %d", got)
	}
	if got := s.CoveredWithin(15, 35); got != 10 {
		t.Fatalf("CoveredWithin(15,35) = %d", got)
	}
	if got := s.CoveredWithin(20, 30); got != 0 {
		t.Fatalf("CoveredWithin(20,30) = %d", got)
	}
}

func TestRangeSetNextCoveredAtOrAfter(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	if got := s.NextCoveredAtOrAfter(0, 100); got != 10 {
		t.Fatalf("= %d, want 10", got)
	}
	if got := s.NextCoveredAtOrAfter(15, 100); got != 15 {
		t.Fatalf("= %d, want 15", got)
	}
	if got := s.NextCoveredAtOrAfter(20, 100); got != 100 {
		t.Fatalf("= %d, want 100 (none)", got)
	}
}

// TestRangeSetVsModel drives random operations against the naive model.
func TestRangeSetVsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s RangeSet
		model := naiveSet{}
		for op := 0; op < 200; op++ {
			start := int64(rng.Intn(300))
			end := start + int64(rng.Intn(20))
			if got, want := s.Add(start, end), model.add(start, end); got != want {
				t.Logf("Add(%d,%d) returned %d, model %d", start, end, got, want)
				return false
			}
			// Spot-check coverage.
			x := int64(rng.Intn(320))
			if s.Contains(x) != model[x] {
				t.Logf("Contains(%d) mismatch", x)
				return false
			}
			// Invariant: blocks sorted, disjoint, non-adjacent.
			blocks := s.r
			for i, b := range blocks {
				if b.Start >= b.End {
					return false
				}
				if i > 0 && blocks[i-1].End >= b.Start {
					return false
				}
			}
		}
		// Total must match model.
		var total int64
		for range model {
			total++
		}
		return s.Total() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSetNextUncoveredProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s RangeSet
		model := naiveSet{}
		for op := 0; op < 50; op++ {
			start := int64(rng.Intn(200))
			end := start + 1 + int64(rng.Intn(10))
			s.Add(start, end)
			model.add(start, end)
		}
		for x := int64(0); x < 220; x++ {
			got := s.NextUncovered(x)
			want := x
			for model[want] {
				want++
			}
			if got != want {
				t.Logf("NextUncovered(%d) = %d, want %d", x, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
