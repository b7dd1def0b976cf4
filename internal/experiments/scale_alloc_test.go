package experiments

import (
	"runtime"
	"testing"
)

// TestScaleMallocsPerFlow gates what one more flow costs the streaming
// runner in heap objects once its free lists are warm: the difference
// between a longer and a shorter run of one cell, so fabric set-up,
// histograms and the first peak-live's worth of slabs cancel. What is
// left is the lingering demux slot (one per flow until it is reaped,
// and at this size the run ends first) plus amortised growth of maps,
// queues and oversized scoreboards: 1.7 per flow, against 16.4 when
// every flow allocated its endpoints. The count comes from
// runtime.MemStats, like the 0 allocs/op gates on the packet path.
func TestScaleMallocsPerFlow(t *testing.T) {
	run := func(requests int) (mallocs uint64, flows int) {
		rc := RunConfig{Variant: Variant{Transport: "dctcp", TLT: true}, Seed: 1}
		p := scaleParams{K: 4, Load: 0.6, Requests: requests, Fanout: 4}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runScale(rc, p)
		runtime.ReadMemStats(&after)
		if res.Incomplete != 0 {
			t.Fatalf("%d of %d flows incomplete", res.Incomplete, res.FlowCount)
		}
		return after.Mallocs - before.Mallocs, res.FlowCount
	}
	m1, f1 := run(1000)
	m2, f2 := run(4000)
	perFlow := float64(m2-m1) / float64(f2-f1)
	t.Logf("%d flows: %d mallocs; %d flows: %d mallocs; marginal %.2f mallocs/flow", f1, m1, f2, m2, perFlow)
	const limit = 3
	if perFlow > limit {
		t.Fatalf("%.2f mallocs per flow, limit %d: per-flow endpoint state is being allocated again", perFlow, limit)
	}
}
