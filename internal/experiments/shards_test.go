package experiments

import (
	"testing"

	"tlt/internal/sim"
)

// withShards swaps the session shard count for the duration of a test.
func withShards(t *testing.T, n int) {
	t.Helper()
	old := Shards()
	SetShards(n)
	t.Cleanup(func() { SetShards(old) })
}

// renderSharded renders one experiment's report at a given worker limit
// and shard count, through renderOnce's memo.
func renderSharded(t *testing.T, id string, scale Scale, procs, shards int) string {
	t.Helper()
	withShards(t, shards)
	return renderOnce(t, id, scale, procs)
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
// event breakdown must sum consistently — for the leaf-spine Traffic
// schedule at 4 shards and the streaming fat-tree cell at 2.
func TestShardedRunAggregates(t *testing.T) {
	leaf := RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    3,
	}
	stream := RunConfig{
		Variant:  Variant{Transport: "dctcp", TLT: true},
		Seed:     1,
		Topology: fatTree{4},
		Source:   openLoop{load: 0.6, requests: 300, fanout: 4},
	}
	for _, c := range []struct {
		rc     RunConfig
		shards int
	}{{leaf, 4}, {stream, 2}} {
		one, many := c.rc, c.rc
		one.Shards, many.Shards = 1, c.shards
		r1, rn := Run(one), Run(many)
		if c.rc.Source == nil && r1.EventsRun != rn.EventsRun {
			t.Fatalf("EventsRun %d (shards=1) != %d (shards=%d)", r1.EventsRun, rn.EventsRun, c.shards)
		}
		// Every shard's walker replays the whole schedule and every shard
		// samples its own queues, so a sharded streaming run adds at most
		// a step per arrival and a sample per 100 µs tick.
		extra := uint64(r1.FlowCount) + uint64(r1.Elapsed/(100*sim.Microsecond)) + 1
		if c.rc.Source != nil && (rn.EventsRun < r1.EventsRun || rn.EventsRun-r1.EventsRun > extra) {
			t.Fatalf("streaming EventsRun %d (shards=1) against %d (shards=%d): more than %d walker steps and samples apart",
				r1.EventsRun, rn.EventsRun, c.shards, extra)
		}
		if r1.Elapsed != rn.Elapsed {
			t.Fatalf("Elapsed %v != %v", r1.Elapsed, rn.Elapsed)
		}
		if len(rn.ShardEvents) != c.shards || len(r1.ShardEvents) != 1 || r1.ShardEvents[0] != r1.EventsRun {
			t.Fatalf("ShardEvents %v and %v, want %d entries and 1", rn.ShardEvents, r1.ShardEvents, c.shards)
		}
		var sum uint64
		for _, ev := range rn.ShardEvents {
			if ev == 0 {
				t.Fatalf("a shard ran zero events: %v (partitioner left it empty)", rn.ShardEvents)
			}
			sum += ev
		}
		if sum != rn.EventsRun {
			t.Fatalf("ShardEvents sum %d != EventsRun %d", sum, rn.EventsRun)
		}
		if s1, sn := r1.Sched, rn.Sched; s1.DeadReclaimed != sn.DeadReclaimed {
			t.Fatalf("sched counters diverge: shards=1 %+v, shards=%d %+v", s1, c.shards, sn)
		}
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
