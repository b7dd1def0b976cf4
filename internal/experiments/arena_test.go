package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tlt/internal/chaos"
	"tlt/internal/sim"
	"tlt/internal/workload"
)

// renderCell prints everything a cell computed: per-flow records,
// counters, event and scheduler totals, end time, notes. The set-up wall
// clock is the one field left out.
func renderCell(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flows=%d incomplete=%d aborted=%d panicked=%v end=%d last=%d events=%d shard=%v sched=%+v\n",
		r.FlowCount, r.Incomplete, r.Aborted, r.Panicked, r.Elapsed, r.TrafficLast, r.EventsRun, r.ShardEvents, r.Sched)
	fmt.Fprintf(&b, "ctr=%+v paused=%v maxq=%d maxredq=%d faults=%+v audit=%d\n",
		r.Ctr, r.PausedFrac, r.MaxQ, r.MaxRedQ, r.Faults, r.AuditEvents)
	for _, fr := range r.Rec.Flows {
		rec := *fr
		rec.Flow = nil
		fmt.Fprintf(&b, "%+v %+v\n", *fr.Flow, rec)
	}
	for _, fs := range r.Stalls {
		fmt.Fprintf(&b, "stall %+v\n", fs)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	return b.String()
}

// isolationCells returns the cells the isolation property is checked on
// (Bs) and the cells run before them on the same slot (As). The As differ
// from every B in traffic and seed. The first is a full-size DCTCP incast
// mix — tens of thousands of ECN marks and a couple of thousand timeouts,
// so its senders finish with congestion state worth leaking; the other
// two end with flows unfinished — a frozen NIC, a dead spine — so the
// slot takes back memory from a network that stopped mid-flight.
func isolationCells(t *testing.T, shards int) (as, bs []RunConfig) {
	t.Helper()
	plan := func(spec string) *chaos.Plan {
		p, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	traffic := func(bg, perSender int) workload.TrafficConfig {
		tr := workload.DefaultTraffic(0.4, bg)
		tr.FlowsPerSender = perSender
		return tr
	}
	for _, v := range []Variant{
		{Transport: "dctcp"},
		{Transport: "dctcp", TLT: true, PFC: true},
		{Transport: "tcp", TLP: true},
		{Transport: "dcqcn", PFC: true},
		{Transport: "hpcc"},
	} {
		bs = append(bs, RunConfig{Variant: v, Traffic: traffic(12, 2), Seed: 5, Shards: shards, Faults: &chaos.Plan{}})
	}
	as = []RunConfig{
		{Variant: Variant{Transport: "dctcp"}, Traffic: traffic(20, 8), Seed: 9},
		{Variant: Variant{Transport: "dctcp", TLT: true}, Traffic: traffic(16, 2), Seed: 2,
			Faults: plan("freeze:host=3,at=100us,dur=10s"), Horizon: 8 * sim.Millisecond},
		{Variant: Variant{Transport: "tcp", MaxRetries: 3}, Traffic: traffic(16, 2), Seed: 4,
			Faults: plan("swfail:switch=13,at=150us,dur=0"), Horizon: 30 * sim.Millisecond},
	}
	for i := range as {
		as[i].Shards = shards
		if as[i].Faults == nil {
			as[i].Faults = &chaos.Plan{}
		}
	}
	return as, bs
}

// TestArenaIsolation is the property arena recycling rests on: what a
// cell computes does not depend on what its grid slot ran before. Every B
// is run on a fresh slot and on a slot that has just run a different
// cell, at shards 1 and 4, one of them under the auditor (pool audit on
// recycled packets included); then all cells go through an 8-slot grid
// twice over, where slots, borrowed shard workers and hand-offs through
// the semaphore are whatever the scheduler makes them. Every rendering
// must equal the fresh one.
//
// Mutation-checked: it fails when packet.Pool.Put stops zeroing, when
// fabric.Host.Release stops clearing idx, when tcp.Sender.Reset stops
// re-initialising a field (rtoEst), and when Reset and Clear both carry
// one over that a finished sender holds (alpha, lostEdge, nextAlphaSeq).
// A field Reset alone carries over is zeroed by Clear between cells;
// that case, which only recycling inside a cell can show, is
// tcp.TestResetEqualsFresh's.
func TestArenaIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		as, bs := isolationCells(t, shards)
		bs[1].Audit = true
		fresh := make([]string, len(bs))
		for i, b := range bs {
			fresh[i] = renderCell(Run(b))
		}
		unfinished := 0
		slot := new(arena)
		for i, b := range bs {
			a := as[i%len(as)]
			a.mem, b.mem = slot, slot
			unfinished += Run(a).Incomplete
			if got := renderCell(Run(b)); got != fresh[i] {
				t.Errorf("shards=%d: %s after %s differs from %s on a fresh slot\n%s", shards,
					b.Variant.Name(), a.Variant.Name(), b.Variant.Name(), firstDiff(got, fresh[i]))
			}
		}
		if unfinished == 0 {
			t.Fatalf("shards=%d: no A left flows unfinished; the fault plans are too gentle", shards)
		}

		var cells []RunConfig
		var want []string
		for round := 0; round < 2; round++ {
			for i, b := range bs {
				cells = append(cells, as[i%len(as)], b)
				want = append(want, "", fresh[i])
			}
		}
		for i, r := range RunGrid(cells, GridOpts{Procs: 8}) {
			if want[i] == "" {
				continue
			}
			if got := renderCell(r); got != want[i] {
				t.Errorf("shards=%d: grid cell %d (%s) differs from a fresh slot\n%s", shards,
					i, cells[i].Variant.Name(), firstDiff(got, want[i]))
			}
		}
	}
}

// firstDiff shows the first line where two renderings part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestGridAllocPerCell is the deterministic gate on what the arena is
// for: on one slot, four identical cells must not cost much more than
// one, because the second to fourth run in the memory the first grew.
// At PR 14 every cell paid its own warm-up and four cost 4x one; with
// the arena they cost about 1.2x (what is left per cell is its flow
// records, its flow schedule and the fabric itself). The count is
// TotalAlloc, like the benchmark's alloc_mb.
func TestGridAllocPerCell(t *testing.T) {
	cell := RunConfig{
		Variant: Variant{Transport: "dctcp"},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1, Shards: 1, Faults: &chaos.Plan{},
	}
	grid := func(n int) uint64 {
		cells := make([]RunConfig, n)
		for i := range cells {
			cells[i] = cell
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range RunGrid(cells, GridOpts{Procs: 1}) {
			if r.Panicked || r.Incomplete != 0 {
				t.Fatalf("cell failed: %v", r.Notes)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	grid(1) // first-use costs: blueprints, kind tables
	one, four := grid(1), grid(4)
	ratio := float64(four) / float64(one)
	t.Logf("1 cell: %.1f MB; 4 cells on one slot: %.1f MB; ratio %.2f", float64(one)/1e6, float64(four)/1e6, ratio)
	if ratio > 2 {
		t.Fatalf("four cells on one slot allocate %.2fx one cell, limit 2x: cells are paying their warm-up again", ratio)
	}
}

// TestSlotKeepsWhatACellCannotUse is the deterministic gate on what keeps
// a mixed grid's allocation steady: on one slot, a leaf-spine TCP cell
// that follows a testbed-star cell or a RoCE cell must find the memory
// the leaf-spine TCP cell before them left, not pay its warm-up again.
// Which cell follows which is the goroutine scheduler's choice in a grid,
// so while these transitions cost a warm-up (13 and 8 MB of a 16 MB
// cell) the benchmark's artifact-grid allocated 170 to 240 MB a pass.
//
// Mutation-checked: fails when fabricFor always starts a new set, and
// when trimEndpoints ignores shardMem.tcp.
func TestSlotKeepsWhatACellCannotUse(t *testing.T) {
	ls := RunConfig{
		Variant: Variant{Transport: "dctcp"},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1, Shards: 1, Faults: &chaos.Plan{},
	}
	roce := ls
	roce.Variant = Variant{Transport: "dcqcn", PFC: true}
	star := RunConfig{Variant: Variant{Transport: "tcp"}, Seed: 1, Custom: incastCell(100)}

	slot := new(arena)
	alloc := func(rc RunConfig) float64 {
		rc.mem = slot
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r := runCell(rc); r.Panicked || r.Incomplete != 0 {
			t.Fatalf("%s failed: %v", rc.label(), r.Notes)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	alloc(ls) // first-use costs: blueprints, kind tables
	slot = new(arena)
	fresh := alloc(ls)
	alloc(star)
	afterStar := alloc(ls)
	alloc(roce)
	afterRoCE := alloc(ls)
	t.Logf("leaf-spine dctcp cell: %.1f MB on a new slot, %.1f MB after a star cell, %.1f MB after a RoCE cell",
		fresh, afterStar, afterRoCE)
	if afterStar > fresh/3 || afterRoCE > fresh/3 {
		t.Fatalf("a cell of another kind cost the next leaf-spine cell its warm-up: %.1f and %.1f MB, limit %.1f",
			afterStar, afterRoCE, fresh/3)
	}
}

// TestFabricForKeepsTheLargerTwo pins which fabric's memory a third
// fabric displaces.
func TestFabricForKeepsTheLargerTwo(t *testing.T) {
	star, bell, ls, tree := shape{9, 1, 1}, shape{9, 2, 1}, shape{96, 16, 1}, shape{128, 80, 1}
	a := new(arena)
	lsMem := a.fabricFor(ls)[0]
	starMem := a.fabricFor(star)[0]
	if a.fabricFor(ls)[0] != lsMem || a.fabricFor(star)[0] != starMem {
		t.Fatal("two fabrics taking turns do not each keep their memory")
	}
	bellMem := a.fabricFor(bell)[0] // displaces the star, not the leaf-spine
	if a.fabricFor(ls)[0] != lsMem || a.fabricFor(bell)[0] != bellMem {
		t.Fatal("a third fabric displaced the larger of the two kept")
	}
	if a.fabricFor(star)[0] == starMem {
		t.Fatal("three fabrics kept")
	}
	a.fabricFor(tree) // bigger than both: keeps neither
	if a.fabrics[1].shards != nil {
		t.Fatalf("a fabric bigger than both kept %+v beside it", a.fabrics[1].shape)
	}
}
