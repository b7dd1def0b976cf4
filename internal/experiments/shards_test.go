package experiments

import (
	"testing"
)

// withShards swaps the session shard count for the duration of a test.
func withShards(t *testing.T, n int) {
	t.Helper()
	old := Shards()
	SetShards(n)
	t.Cleanup(func() { SetShards(old) })
}

// renderSharded renders one experiment's report at a given worker limit
// and shard count.
func renderSharded(t *testing.T, id string, scale Scale, procs, shards int) string {
	t.Helper()
	withShards(t, shards)
	return renderAt(t, id, scale, procs)
}

// The contract the parallel-DES design hangs on: a report produced with
// the fabric sharded across four event loops must be byte-identical to
// the single-shard one, under both a serial grid and an oversubscribed
// parallel grid (cells and shard workers competing for the same slots).
// The experiments cover clean congestion (fig5), randomized link
// flaps and GE loss (chaos-recovery), switch kills with reroute plus
// pause storms (failure-recovery) — every cross-shard mutation path the
// chaos engine has — and the non-default MMU/flow-control strategies
// (ablation-buffer: bshare thresholds, tiny-buffer capacity, BFC
// pause targeting all run inside sharded fabrics) — plus the streaming
// fat-tree runner (scale-sweep: per-shard schedule walkers, merged
// stream aggregates).
func TestGridReportsDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	scale := Scale{BgFlows: 30, Seeds: 2, AppPoints: 2}
	for _, id := range []string{"fig5", "chaos-recovery", "failure-recovery", "ablation-buffer", "scale-sweep"} {
		base := renderSharded(t, id, scale, 1, 1)
		for _, cfg := range [][2]int{{1, 4}, {8, 1}, {8, 4}} {
			got := renderSharded(t, id, scale, cfg[0], cfg[1])
			if got != base {
				t.Fatalf("%s: report at procs=%d shards=%d differs from procs=1 shards=1\n--- base ---\n%s\n--- got ---\n%s",
					id, cfg[0], cfg[1], base, got)
			}
		}
	}
}

// A sharded run must agree with the single-shard run on the non-rendered
// aggregates too: event totals, scheduler counters, and the per-shard
// event breakdown must sum consistently.
func TestShardedRunAggregates(t *testing.T) {
	base := RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    3,
	}
	r1c := base
	r1c.Shards = 1
	r4c := base
	r4c.Shards = 4
	r1, r4 := Run(r1c), Run(r4c)
	if r1.EventsRun != r4.EventsRun {
		t.Fatalf("EventsRun %d (shards=1) != %d (shards=4)", r1.EventsRun, r4.EventsRun)
	}
	if r1.Elapsed != r4.Elapsed {
		t.Fatalf("Elapsed %v != %v", r1.Elapsed, r4.Elapsed)
	}
	if len(r4.ShardEvents) != 4 {
		t.Fatalf("ShardEvents has %d entries, want 4", len(r4.ShardEvents))
	}
	var sum uint64
	for _, ev := range r4.ShardEvents {
		if ev == 0 {
			t.Fatalf("a shard ran zero events: %v (partitioner left it empty)", r4.ShardEvents)
		}
		sum += ev
	}
	if sum != r4.EventsRun {
		t.Fatalf("ShardEvents sum %d != EventsRun %d", sum, r4.EventsRun)
	}
	s1, s4 := r1.Sched, r4.Sched
	if s1.DeadReclaimed != s4.DeadReclaimed {
		t.Fatalf("sched counters diverge: shards=1 %+v, shards=4 %+v", s1, s4)
	}
}

// Observer collectors read cross-shard state from event callbacks, so
// runs that attach them must clamp to one shard — and still succeed.
func TestObserverRunsClampToOneShard(t *testing.T) {
	rc := RunConfig{
		Variant:         Variant{Transport: "dctcp", TLT: true},
		Traffic:         trafficFor(tinyScale(), 0.4, 0.05),
		Seed:            1,
		Shards:          4,
		Audit:           true,
		CollectDelivery: true,
	}
	res := Run(rc)
	if res.Panicked {
		t.Fatalf("clamped run panicked: %v", res.Notes)
	}
	if len(res.ShardEvents) != 1 {
		t.Fatalf("audit run used %d shards, want clamp to 1", len(res.ShardEvents))
	}
	if res.AuditEvents == 0 {
		t.Fatal("auditor saw no events")
	}
}
