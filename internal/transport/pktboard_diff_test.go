package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// flatRange is one range of a flatBoard; a cumulative ACK that lands
// inside it moves start up.
type flatRange struct {
	start, end                        int64
	sacked, lost, retx, sent, sampled bool
	first, last                       sim.Time
}

// flatBoard is the scoreboard written as its specification: every range
// the message was ever sent in, in one list that is never compacted, and
// every query a scan of it from the start — no window-following backing,
// no modular ends, no loss edge marked as it moves (ApplyLostEdge scans
// after the SACK blocks), no in-order exit from RackMark. It is the
// oracle Board is compared against.
type flatBoard struct {
	N, Una, Nxt, LostEdge  int64
	r                      []flatRange
	sacked, lost, lostRetx int64
	keepStale              bool
	sampling               bool
	samples                []float64
}

func (b *flatBoard) InFlight() int64    { return (b.Nxt - b.Una) - b.sacked - (b.lost - b.lostRetx) }
func (b *flatBoard) PendingRetx() int64 { return b.lost - b.lostRetx }

func (b *flatBoard) top() int64 {
	if len(b.r) == 0 {
		return 0
	}
	return b.r[len(b.r)-1].end
}

// live reports whether range i is past Una, window whether it is also
// below Nxt.
func (b *flatBoard) live(i int) bool   { return b.r[i].end > b.Una }
func (b *flatBoard) window(i int) bool { return b.live(i) && b.r[i].start < b.Nxt }

func (b *flatBoard) at(seq int64) int {
	for i, r := range b.r {
		if b.live(i) && r.start <= seq && seq < r.end {
			return i
		}
	}
	return -1
}

func (b *flatBoard) Send(seq, end int64, isRetx bool, now sim.Time) int64 {
	switch {
	case seq < b.Una:
		b.Nxt = max(b.Nxt, end)
		return end
	case seq >= b.top():
		for p := b.top(); p < seq; p++ {
			b.r = append(b.r, flatRange{start: p, end: p + 1})
		}
		b.r = append(b.r, flatRange{start: seq, end: end})
	}
	r := &b.r[b.at(seq)]
	b.Nxt = max(b.Nxt, r.end)
	if !r.sent {
		r.sent, r.first = true, now
	}
	r.last = now
	if isRetx && r.lost && !r.retx {
		r.retx = true
		b.lostRetx += r.end - r.start
	}
	return r.end
}

func (b *flatBoard) uncount(r *flatRange, n int64) {
	if r.sacked {
		b.sacked -= n
	}
	if r.lost {
		b.lost -= n
		if r.retx {
			b.lostRetx -= n
		}
	}
}

func (b *flatBoard) sample(r *flatRange, now sim.Time) {
	if b.sampling && !r.sampled {
		r.sampled = true
		b.samples = append(b.samples, (now - r.first).Seconds())
	}
}

func (b *flatBoard) Ack(cum int64, now sim.Time) bool {
	if cum <= b.Una {
		return false
	}
	cum = min(cum, b.N)
	for i := range b.r {
		r := &b.r[i]
		if !b.live(i) || r.start >= cum {
			continue
		}
		b.uncount(r, min(r.end, cum)-r.start)
		if r.end <= cum {
			b.sample(r, now)
		} else {
			r.start = cum
		}
	}
	b.Una = cum
	b.LostEdge = max(b.LostEdge, cum)
	return true
}

func (b *flatBoard) markSacked(i int, now sim.Time) {
	r := &b.r[i]
	if r.sacked {
		return
	}
	b.uncount(r, r.end-r.start)
	b.sacked += r.end - r.start
	r.sacked, r.lost, r.retx = true, false, false
	b.sample(r, now)
}

func (b *flatBoard) Sack(blocks []packet.SackBlock, now sim.Time) {
	for _, blk := range blocks {
		if i := b.at(max(blk.Start, b.Una)); i >= 0 {
			for ; i < len(b.r) && b.r[i].end <= min(blk.End, b.Nxt); i++ {
				b.markSacked(i, now)
			}
		}
		if blk.Start > b.Una && blk.Start > b.LostEdge {
			b.LostEdge = blk.Start
		}
	}
}

func (b *flatBoard) markLost(i int) bool {
	r := &b.r[i]
	if r.sacked || r.lost {
		return false
	}
	r.lost = true
	b.lost += r.end - r.start
	return true
}

func (b *flatBoard) clearRetx(i int) {
	if r := &b.r[i]; r.retx {
		r.retx = false
		b.lostRetx -= r.end - r.start
	}
}

// ApplyLostEdge marks the unsacked ranges that start below LostEdge lost.
func (b *flatBoard) ApplyLostEdge() {
	for i := range b.r {
		if b.live(i) && b.r[i].start < b.LostEdge {
			b.markLost(i)
		}
	}
}

func (b *flatBoard) RackMark(t sim.Time) (newLoss bool) {
	for i, r := range b.r {
		if !b.window(i) || !r.sent || r.sacked || r.last >= t || (r.retx && b.keepStale) {
			continue
		}
		b.clearRetx(i)
		newLoss = b.markLost(i) || newLoss
	}
	return newLoss
}

func (b *flatBoard) MarkAllLost() {
	b.LostEdge = b.Nxt
	for i := range b.r {
		if b.window(i) {
			b.clearRetx(i)
			b.markLost(i)
		}
	}
}

func (b *flatBoard) Rewind(seq int64) {
	if seq < b.Una {
		seq = b.Una
	}
	if seq < b.Nxt {
		b.Nxt = seq
	}
}

// first returns the start of the first (or, last, the last) range in the
// window that ok accepts, or -1.
func (b *flatBoard) first(last bool, ok func(flatRange) bool) int64 {
	seq := int64(-1)
	for i, r := range b.r {
		if b.window(i) && ok(r) {
			if seq = r.start; !last {
				break
			}
		}
	}
	return seq
}

func (b *flatBoard) NextRetx() int64 {
	return b.first(false, func(r flatRange) bool { return r.lost && !r.retx })
}
func (b *flatBoard) FirstUnsacked() int64 {
	return b.first(false, func(r flatRange) bool { return !r.sacked })
}
func (b *flatBoard) LastUnsacked() int64 {
	return b.first(true, func(r flatRange) bool { return !r.sacked })
}

// TestPktBoardEqualsFlatBoard drives the RoCE board and the flat one
// through the same seeded sequences of everything a queue pair does to its
// scoreboard, and compares every counter, every query and every live
// entry after each step. Half the runs are selective (SACK blocks,
// loss-edge and RACK marking, retransmissions, RTO collapse), half
// go-back-N (rewinds, acknowledgments that overtake the rewound Nxt); the
// boards trade backings through one shared list.
func TestPktBoardEqualsFlatBoard(t *testing.T) { diffBoards[noStamp](t, false) }

// TestByteBoardEqualsFlatBoard is the same for tcp's board, keyed by byte
// ranges: segments of 1 to 12 bytes, cumulative ACKs that land inside the
// head range, SACK blocks on any byte boundary, the resends of the full-MTU
// clock and of TLP, RackMark with and without the 1-byte clock's stale
// retransmissions, and delivery samples on half the runs.
func TestByteBoardEqualsFlatBoard(t *testing.T) { diffBoards[firstSent](t, true) }

func diffBoards[X stamp[X]](t *testing.T, bytes bool) {
	var mem Backings[Entry[X]]
	steps := map[string]int{}
	rackArms := map[[2]bool]int{} // RackMark calls by {in-order exit, stale retransmissions kept}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gbn := !bytes && seed%2 == 0
		keepStale := bytes && seed%4 < 2
		n := int64(1 + rng.Intn(600))
		if bytes {
			n = int64(1 + rng.Intn(3000))
		}
		clock := sim.New()
		got, want := &Board[X]{mem: &mem}, &flatBoard{N: n, keepStale: keepStale}
		got.Reset(n, 10, keepStale)
		var samples *stats.Reservoir
		if bytes && seed%3 != 0 {
			samples = stats.NewReservoir(1<<20, 1)
			got.SampleDeliveries(clock, samples)
			want.sampling = true
		}
		now := sim.Time(0)
		check := func(step string) {
			steps[step]++
			ctx := fmt.Sprintf("seed %d after %s", seed, step)
			if got.N != want.N || got.Una != want.Una || got.Nxt != want.Nxt || got.LostEdge != want.LostEdge ||
				got.sacked != want.sacked || got.lost != want.lost || got.lostRetx != want.lostRetx ||
				got.InFlight() != want.InFlight() || got.PendingRetx() != want.PendingRetx() || got.Lost() != want.lost {
				t.Fatalf("%s: board %+v\nflat N=%d Una=%d Nxt=%d LostEdge=%d sacked=%d lost=%d lostRetx=%d", ctx, got,
					want.N, want.Una, want.Nxt, want.LostEdge, want.sacked, want.lost, want.lostRetx)
			}
			for _, q := range []struct {
				name      string
				got, want int64
			}{
				{"NextRetx", got.NextRetx(), want.NextRetx()},
				{"FirstUnsacked", got.FirstUnsacked(), want.FirstUnsacked()},
				{"LastUnsacked", got.LastUnsacked(), want.LastUnsacked()},
			} {
				if q.got != q.want {
					t.Fatalf("%s: %s %d, flat %d", ctx, q.name, q.got, q.want)
				}
			}
			live, resent := 0, int32(0)
			for i := got.head; i < len(got.st); i++ {
				if got.st[i].flags&eResent != 0 {
					resent++
				}
			}
			if resent != got.resent {
				t.Fatalf("%s: resent counter %d, recount %d", ctx, got.resent, resent)
			}
			for i, r := range want.r {
				if !want.live(i) {
					continue
				}
				live++
				e := got.State(r.start)
				if g, w := [4]bool{e.Sacked(), e.Lost(), e.Retx(), e.EverSent()}, [4]bool{r.sacked, r.lost, r.retx, r.sent}; g != w ||
					e.LastSent != r.last || got.End(r.start) != r.end {
					t.Fatalf("%s: range [%d, %d) sacked/lost/retx/sent %v last sent %v, board %v %v ending at %d",
						ctx, r.start, r.end, w, r.last, g, e.LastSent, got.End(r.start))
				}
			}
			if live != len(got.st)-got.head {
				t.Fatalf("%s: %d live entries, flat %d", ctx, len(got.st)-got.head, live)
			}
			if samples != nil && !slices.Equal(samples.Samples(), want.samples) {
				t.Fatalf("%s: delivery samples %v, flat %v", ctx, samples.Samples(), want.samples)
			}
		}
		tick := func() {
			now += sim.Time(rng.Intn(3))
			clock.AlignClock(now)
		}
		send := func(seq, end int64, isRetx bool) {
			tick()
			if g, w := got.Send(seq, end, isRetx, now), want.Send(seq, end, isRetx, now); g != w {
				t.Fatalf("seed %d: Send(%d, %d) ended at %d, flat %d", seed, seq, end, g, w)
			}
		}
		inWindow := func() int64 { return want.Una + rng.Int63n(max(want.Nxt-want.Una, 1)) }
		for op := 0; op < 4000 && want.Una < n; op++ {
			switch r := rng.Intn(100); {
			case r < 45: // what a sender does most: retransmit if asked to, else send fresh
				if seq := want.NextRetx(); seq >= 0 && rng.Intn(4) > 0 {
					send(seq, 0, true)
					check("retransmission")
				} else if want.Nxt < n {
					end := want.Nxt + 1
					if bytes && rng.Intn(4) > 0 {
						end = min(n, want.Nxt+1+rng.Int63n(12))
					}
					send(want.Nxt, end, gbn && rng.Intn(2) == 0)
					check("fresh send")
				}
			case r < 70:
				cum := inWindow() + 1
				if bytes && cum > want.Nxt {
					break // a byte stream is never acknowledged past what it sent
				}
				if gbn && rng.Intn(8) == 0 {
					cum = min(n, cum+rng.Int63n(40)) // first transmissions acknowledged past a rewound Nxt
				}
				step := "ack"
				if i := want.at(cum); i >= 0 && want.r[i].start < cum {
					step = "partial ack" // lands inside a range
				}
				tick()
				if g, w := got.Ack(cum), want.Ack(cum, now); g != w {
					t.Fatalf("seed %d: Ack(%d) progressed %v, flat %v", seed, cum, g, w)
				}
				check(step)
			case r < 80 && !gbn:
				var blocks []packet.SackBlock
				for k := rng.Intn(3); k >= 0 && want.Nxt > want.Una; k-- {
					start := inWindow()
					blocks = append(blocks, packet.SackBlock{Start: start, End: min(want.Nxt, start+1+rng.Int63n(24))})
				}
				tick()
				got.Sack(blocks)
				want.Sack(blocks, now)
				want.ApplyLostEdge()
				check("sack")
			case r < 88 && !gbn:
				// The echo of some packet in the window, the way an ACK carries it.
				at := now
				if want.Nxt > want.Una {
					at = want.r[want.at(inWindow())].last
				}
				rackArms[[2]bool{got.resent == 0, keepStale}]++
				if g, w := got.RackMark(at), want.RackMark(at); g != w {
					t.Fatalf("seed %d: RackMark(%v) %v, flat %v", seed, at, g, w)
				}
				check("rack")
			case r < 91 && bytes && want.Nxt > want.Una:
				// The full-MTU clock resends the first unsacked range, TLP the last.
				if seq := want.FirstUnsacked(); seq >= 0 && rng.Intn(2) == 0 {
					send(seq, 0, true)
					check("clock resend")
				} else if seq := want.LastUnsacked(); seq >= 0 {
					send(seq, 0, true)
					check("tlp resend")
				}
			case r < 93 && !gbn:
				got.MarkAllLost()
				want.MarkAllLost()
				check("collapse")
			case r < 96 && gbn:
				psn := inWindow() - rng.Int63n(3)
				got.Rewind(psn)
				want.Rewind(psn)
				check("rewind")
			case r < 98 && gbn && want.Nxt < want.Una:
				send(want.Nxt, want.Nxt+1, true) // below Una, until Nxt catches up
				check("send below una")
			}
		}
		got.Release()
	}
	want := []string{"retransmission", "fresh send", "ack", "sack", "rack", "collapse"}
	arms := [][2]bool{{true, false}, {false, false}}
	if bytes {
		want = append(want, "partial ack", "clock resend", "tlp resend")
		arms = append(arms, [2]bool{true, true}, [2]bool{false, true})
	} else {
		want = append(want, "rewind", "send below una")
	}
	for _, step := range want {
		if steps[step] == 0 {
			t.Errorf("no sequence reached step %q", step)
		}
	}
	for _, arm := range arms {
		if rackArms[arm] == 0 {
			t.Errorf("RackMark calls by {in-order exit, stale kept}: %v; %v was never taken", rackArms, arm)
		}
	}
	t.Logf("steps: %v; RackMark calls by {in-order exit, stale kept}: %v", steps, rackArms)
}

// TestBoardEntrySize pins the entries to the sizes the benchmark's memory
// figures were measured with: a RoCE PSN in 16 bytes, and a tcp segment,
// which also keeps its first send time, in at most 24.
func TestBoardEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry[noStamp]{}); got != 16 {
		t.Errorf("PktBoard entry is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Entry[firstSent]{}); got > 24 {
		t.Errorf("ByteBoard entry is %d bytes, want at most 24", got)
	}
}

// TestPktBoardFollowsWindow: a board holds the window, not the message.
// 30,000 packets pass through at 64 in flight on a backing that never has
// more than twice that many slots, and a board for a 65,536-packet
// message is a few words until packets leave.
func TestPktBoardFollowsWindow(t *testing.T) {
	const n, window = 30_000, 64
	b := NewPktBoard(n)
	peak := 0
	for p := int64(0); p < n; p++ {
		if p >= window {
			b.Ack(p - window + 1)
		}
		b.OnSent(p, false, sim.Time(p))
		if b.InFlight() != min(p+1, window) {
			t.Fatalf("after packet %d: %d in flight", p, b.InFlight())
		}
		peak = max(peak, cap(b.st))
	}
	if peak > 2*window {
		t.Fatalf("a %d-packet message at %d in flight grew the board to %d slots, limit %d", n, window, peak, 2*window)
	}
	b.Ack(n)
	if !b.Complete() || b.InFlight() != 0 || len(b.st) != 0 {
		t.Fatalf("complete=%v inflight=%d live slots=%d after the last ACK", b.Complete(), b.InFlight(), len(b.st))
	}

	var big *PktBoard
	if allocs := testing.AllocsPerRun(10, func() { big = NewPktBoard(1 << 16) }); allocs > 1 || big.st != nil {
		t.Fatalf("NewPktBoard(1<<16) allocated %v times and %d slots before any packet was sent", allocs, cap(big.st))
	}
}
