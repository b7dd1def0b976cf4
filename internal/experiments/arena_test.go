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
// (Bs) and, index by index, the cell run before each on the same slot
// (As). The As differ from every B in traffic and seed. The first is a
// full-size DCTCP incast mix — tens of thousands of ECN marks and a
// couple of thousand timeouts, so its senders finish with congestion
// state worth leaking; the next two end with flows unfinished — a frozen
// NIC, a dead spine — so the slot takes back memory from a network that
// stopped mid-flight. The first five Bs follow those three in turn, RoCE
// Bs after TCP As included. The next three are RoCE after RoCE, where the
// queue pairs themselves pass from A to B: hpcc after a lossy dcqcn-sack
// mix, dcqcn-irn after go-back-N senders that a dead spine made give up,
// dcqcn-sack after hpcc. The last two follow hpcc too: a TCP B, and an
// hpcc B that takes over the INT extensions with no audit stamp between.
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
		{Transport: "hpcc", TLT: true},
		{Transport: "dcqcn-irn", TLT: true},
		{Transport: "dcqcn-sack", TLT: true},
		{Transport: "dctcp", TLT: true},
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
	as = append(as, as[0], as[1],
		RunConfig{Variant: Variant{Transport: "dcqcn-sack"}, Traffic: traffic(20, 8), Seed: 9},
		RunConfig{Variant: Variant{Transport: "dcqcn", MaxRetries: 3}, Traffic: traffic(16, 2), Seed: 4,
			Faults: plan("swfail:switch=13,at=20us,dur=0"), Horizon: 30 * sim.Millisecond},
		RunConfig{Variant: Variant{Transport: "hpcc", TLT: true}, Traffic: traffic(16, 4), Seed: 2})
	as = append(as, as[7], as[7])
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
// cell, at shards 1 and 4, a TCP one and two RoCE ones under the auditor
// (pool audit on recycled packets and extensions included: hpcc after
// dcqcn-sack takes over SACK extensions, dcqcn-sack after hpcc INT ones)
// and the rest without, so that no audit stamp wipes what a recycled
// extension carries over; then all cells go through an 8-slot grid twice
// over, where slots, borrowed shard workers and hand-offs through the
// semaphore are whatever the scheduler makes them. Every rendering must
// equal the fresh one, and after every cell the slot must hold the
// extensions its packets carried.
//
// Mutation-checked: it fails when packet.Pool.Put stops zeroing, stops
// returning the SACK extension or stops emptying the INT one, when an
// ACK's INT echo aliases the data packet's extension, when
// tcp.Sender.Reset stops re-initialising a field (rtoEst), and when Reset
// and Clear both carry one over that a finished sender holds (alpha,
// Board, nextAlphaSeq; for a queue pair dcqcn's rate, hpcc's window, the
// receiver's Cum). A host's demux map handed on uncleared it cannot see
// (each cell registers over the IDs it reuses);
// fabric.TestHostBuffersRecycleClean does.
// A field Reset alone carries over is zeroed by Clear between cells;
// that case, which only recycling inside a cell can show, is
// tcp.TestResetEqualsFresh's and transport's TestQPResetEqualsFresh's.
func TestArenaIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		as, bs := isolationCells(t, shards)
		bs[1].Audit, bs[5].Audit, bs[7].Audit = true, true, true
		fresh := make([]string, len(bs))
		for i, b := range bs {
			fresh[i] = renderCell(Run(b))
		}
		unfinished, gaveUp := 0, 0
		slot := new(arena)
		for i, b := range bs {
			a := as[i]
			a.mem, b.mem = slot, slot
			ra := Run(a)
			checkStock(t, slot, a)
			unfinished += ra.Incomplete
			if a.Variant.IsRoCE() {
				gaveUp += ra.Aborted
			}
			got := renderCell(Run(b))
			checkStock(t, slot, b)
			if got != fresh[i] {
				t.Errorf("shards=%d: %s after %s differs from %s on a fresh slot\n%s", shards,
					b.Variant.Name(), a.Variant.Name(), b.Variant.Name(), firstDiff(got, fresh[i]))
			}
		}
		if unfinished == 0 || gaveUp == 0 {
			t.Fatalf("shards=%d: the As left %d flows unfinished and %d queue pairs aborted; the fault plans are too gentle",
				shards, unfinished, gaveUp)
		}

		var cells []RunConfig
		var want []string
		for round := 0; round < 2; round++ {
			for i, b := range bs {
				cells = append(cells, as[i], b)
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

// checkStock checks that a slot which just ran rc holds extensions of
// every kind rc's packets carried: SACK blocks on every transport but
// go-back-N dcqcn, INT stacks on hpcc.
func checkStock(t *testing.T, slot *arena, rc RunConfig) {
	t.Helper()
	sacks, ints := 0, 0
	for _, m := range slot.shards {
		_, s, i := m.pkts.Len()
		sacks, ints = sacks+s, ints+i
	}
	if tr := rc.Variant.Transport; (tr != "dcqcn" && sacks == 0) || (tr == "hpcc" && ints == 0) {
		t.Errorf("after %s, the slot holds %d SACK and %d INT extensions: the pool lost the ones its packets carried",
			rc.Variant.Name(), sacks, ints)
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
// records, its flow schedule and the fabric itself). A RoCE cell built
// its queue pairs and their message-sized scoreboards anew until PR 20;
// its row has the tighter limit. The count is TotalAlloc, like the
// benchmark's alloc_mb.
func TestGridAllocPerCell(t *testing.T) {
	for _, row := range []struct {
		transport string
		limit     float64
	}{{"dctcp", 2}, {"dcqcn-sack", 1.5}} {
		gridAllocPerCell(t, Variant{Transport: row.transport}, row.limit)
	}
}

func gridAllocPerCell(t *testing.T, v Variant, limit float64) {
	cell := RunConfig{
		Variant: v,
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
	t.Logf("%s, 1 cell: %.1f MB; 4 cells on one slot: %.1f MB; ratio %.2f", v.Name(), float64(one)/1e6, float64(four)/1e6, ratio)
	if ratio > limit {
		t.Fatalf("four %s cells on one slot allocate %.2fx one cell, limit %.1fx: cells are paying their warm-up again",
			v.Name(), ratio, limit)
	}
}

// TestSlotKeepsWhatACellCannotUse is the deterministic gate on what keeps
// a mixed grid's allocation steady: on one slot, a leaf-spine TCP cell
// that follows a testbed-star cell or a RoCE cell must find the memory
// the leaf-spine TCP cell before them left, not pay its warm-up again —
// and so must a leaf-spine dcqcn cell that follows a star cell or a TCP
// one. Which cell follows which is the goroutine scheduler's choice in a
// grid, so while these transitions cost a warm-up (13 and 8 MB of a 16 MB
// cell) the benchmark's artifact-grid allocated 170 to 240 MB a pass.
//
// Mutation-checked: fails when fabricFor always starts a new set, and
// when trimEndpoints ignores shardMem.took.
func TestSlotKeepsWhatACellCannotUse(t *testing.T) {
	dctcp := RunConfig{
		Variant: Variant{Transport: "dctcp"},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1, Shards: 1, Faults: &chaos.Plan{},
	}
	dcqcn := dctcp
	dcqcn.Variant = Variant{Transport: "dcqcn", PFC: true}
	slotKeepsWhatACellCannotUse(t, dctcp, dcqcn)
	// Lossy this way round: the queues PFC lets build are packets and
	// buffers, which any cell can use and so any cell trims.
	dcqcn.Variant.PFC = false
	slotKeepsWhatACellCannotUse(t, dcqcn, dctcp)
}

// slotKeepsWhatACellCannotUse checks ls, a leaf-spine cell, after a star
// cell and after other, a leaf-spine cell of another transport family.
func slotKeepsWhatACellCannotUse(t *testing.T, ls, other RunConfig) {
	star := RunConfig{Variant: Variant{Transport: "tcp"}, Seed: 1, Topology: testbedStar{9}, Source: incast(100)}

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
	alloc(other)
	afterOther := alloc(ls)
	t.Logf("leaf-spine %s cell: %.1f MB on a new slot, %.1f MB after a star cell, %.1f MB after a %s cell",
		ls.label(), fresh, afterStar, afterOther, other.label())
	if afterStar > fresh/3 || afterOther > fresh/3 {
		t.Fatalf("a cell of another kind cost the next leaf-spine %s cell its warm-up: %.1f and %.1f MB, limit %.1f",
			ls.label(), afterStar, afterOther, fresh/3)
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
