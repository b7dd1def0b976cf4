package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tlt/internal/sim"
)

// Bucket index and midpoint must agree: every value's bucket midpoint
// is within half a bucket width, i.e. relative error <= 1/256.
func TestHistBucketError(t *testing.T) {
	vals := []int64{0, 1, 255, 256, 257, 511, 512, 1023, 1 << 20, 1<<40 + 12345, 1<<62 + 999}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}
	for _, v := range vals {
		idx := histIdx(v)
		mid := histMid(idx)
		if v < 256 {
			if mid != v {
				t.Fatalf("value %d: exact bucket returned %d", v, mid)
			}
			continue
		}
		if relErr(mid, v) > 1.0/256+1e-12 {
			t.Fatalf("value %d: midpoint %d has relative error %g > 1/256", v, mid, relErr(mid, v))
		}
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// Streaming quantiles must stay within 1% of the exact nearest-rank
// quantile over adversarial distributions (heavy tails, clusters).
func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 2e6) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"tiny":      func() int64 { return rng.Int63n(200) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000_000 + rng.Int63n(1000)
			}
			return 10_000 + rng.Int63n(100)
		},
	}
	ps := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}
	for name, draw := range dists {
		h := NewHist()
		exact := make([]int64, 0, 50000)
		for i := 0; i < 50000; i++ {
			v := draw()
			h.Record(v)
			exact = append(exact, v)
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, p := range ps {
			rank := int(math.Ceil(p * float64(len(exact))))
			if rank < 1 {
				rank = 1
			}
			want := exact[rank-1]
			got := h.Quantile(p)
			if relErr(got, want) > 0.01 {
				t.Errorf("%s p%g: streaming %d vs exact %d (relative error %g)",
					name, p*100, got, want, relErr(got, want))
			}
		}
		if h.Count() != int64(len(exact)) {
			t.Errorf("%s: count %d != %d", name, h.Count(), len(exact))
		}
		var sum int64
		for _, v := range exact {
			sum += v
		}
		if h.Sum() != sum {
			t.Errorf("%s: sum %d != exact %d", name, h.Sum(), sum)
		}
		if h.Min() != exact[0] || h.Max() != exact[len(exact)-1] {
			t.Errorf("%s: min/max %d/%d != exact %d/%d", name, h.Min(), h.Max(), exact[0], exact[len(exact)-1])
		}
	}
}

// Merging per-shard histograms must be independent of merge order and
// of how samples were partitioned — the shard-invariance contract.
func TestHistMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 20000)
	for i := range samples {
		samples[i] = int64(rng.ExpFloat64() * 1e7)
	}

	whole := NewHist()
	for _, v := range samples {
		whole.Record(v)
	}

	for _, shards := range []int{2, 4, 7} {
		parts := make([]*Hist, shards)
		for i := range parts {
			parts[i] = NewHist()
		}
		for i, v := range samples {
			parts[i%shards].Record(v)
		}
		// Forward merge order.
		fwd := NewHist()
		for _, p := range parts {
			fwd.Merge(p)
		}
		// Reverse merge order.
		rev := NewHist()
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		for _, p := range []float64{0, 0.5, 0.99, 1} {
			if fwd.Quantile(p) != whole.Quantile(p) || rev.Quantile(p) != whole.Quantile(p) {
				t.Fatalf("shards=%d p=%g: merge not invariant (%d / %d / whole %d)",
					shards, p, fwd.Quantile(p), rev.Quantile(p), whole.Quantile(p))
			}
		}
		if fwd.Sum() != whole.Sum() || fwd.Count() != whole.Count() {
			t.Fatalf("shards=%d: sum/count diverge after merge", shards)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Merge(NewHist())
	h.Merge(nil)
	if h.Count() != 0 {
		t.Fatal("merging empties must stay empty")
	}
	h.Record(-5) // clamps to 0
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatal("negative values must clamp to zero")
	}
}

func TestEpochsPeakLiveAndMerge(t *testing.T) {
	e := NewEpochs(sim.Millisecond)
	// Three flows issued in bin 0, two complete in bin 1, one in bin 3.
	e.AddIssued(0)
	e.AddIssued(100 * sim.Microsecond)
	e.AddIssued(900 * sim.Microsecond)
	e.AddDone(1100*sim.Microsecond, 1000)
	e.AddDone(1200*sim.Microsecond, 2000)
	e.AddDone(3500*sim.Microsecond, 3000)
	if got := e.PeakLive(); got != 3 {
		t.Fatalf("PeakLive = %d, want 3", got)
	}

	// Partition the same events across two shards; the merged series
	// must match the single-shard one exactly.
	a, b := NewEpochs(sim.Millisecond), NewEpochs(sim.Millisecond)
	a.AddIssued(0)
	b.AddIssued(100 * sim.Microsecond)
	a.AddIssued(900 * sim.Microsecond)
	b.AddDone(1100*sim.Microsecond, 1000)
	a.AddDone(1200*sim.Microsecond, 2000)
	b.AddDone(3500*sim.Microsecond, 3000)
	a.Merge(b)
	if a.PeakLive() != e.PeakLive() {
		t.Fatalf("merged PeakLive %d != whole %d", a.PeakLive(), e.PeakLive())
	}
	for i := range e.Issued {
		if a.Issued[i] != e.Issued[i] || a.Done[i] != e.Done[i] || a.Bytes[i] != e.Bytes[i] {
			t.Fatalf("bin %d diverges after merge", i)
		}
	}
}

func TestStreamMergeAndFold(t *testing.T) {
	st := NewStream(sim.Millisecond)
	fr := &FlowRecord{Timeouts: 2, SentPackets: 10, TotalBytes: 9000, ImpPackets: 3, ImpBytes: 100}
	st.Class(true).FoldSender(fr)
	st.Class(true).Issued++
	st.Class(true).FoldDone(5*sim.Millisecond, 9000)
	st.Class(false).Issued++

	o := NewStream(sim.Millisecond)
	o.Class(false).FoldDone(8*sim.Millisecond, 500)
	o.Queue.Record(4096)

	st.Merge(o)
	if st.FG.Timeouts != 2 || st.FG.Done != 1 || st.BG.Done != 1 || st.Queue.Count() != 1 {
		t.Fatalf("merge lost counters: %+v %+v queue=%d", st.FG, st.BG, st.Queue.Count())
	}
	if st.FG.FCT.QuantileDur(1) != 5*sim.Millisecond {
		t.Fatalf("FG FCT max = %v", st.FG.FCT.QuantileDur(1))
	}
}
