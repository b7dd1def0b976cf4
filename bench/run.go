package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tlt/internal/chaos"
	"tlt/internal/experiments"
	"tlt/internal/sim"
	"tlt/internal/topo"
	"tlt/internal/workload"
)

// runOpts are the settings of one benchmark run.
type runOpts struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Scale   float64
	// Probes holds the probes and stand-alone spans of this set: neither
	// depends on the workload, so -workload all runs them once per set.
	Probes *probeSet
}

// probeSet is one run of every probe and every stand-alone span.
type probeSet struct {
	got      map[string]probeResult
	allocs   float64            // tcp.allocs_per_flow
	spans    map[string]float64 // the S rows timed outside any workload's pass
	tracer   *tracer
	problems []string
}

func (ps *probeSet) problemf(format string, args ...any) {
	ps.problems = append(ps.problems, fmt.Sprintf(format, args...))
}

// ensure runs every probe and stand-alone span unless this set already
// has.
func (ps *probeSet) ensure(scale float64) {
	if ps.got != nil {
		return
	}
	loop := time.Duration(float64(200*time.Millisecond) * scale)
	ps.got = map[string]probeResult{}
	for _, p := range probes {
		runtime.GC()
		pr, err := runProbe(p, loop)
		if err != nil {
			ps.problemf("probe %v", err)
		}
		ps.got[p.Name] = pr
	}
	var err error
	if ps.allocs, err = allocsPerFlow(); err != nil {
		ps.problemf("probe tcp.allocs_per_flow: %v", err)
	}
	ps.standAlone(scale)
}

// minTimedPasses is the protocol's pass count. An end-to-end run keeps
// timing past it until -seconds have passed; a traced run stops at it,
// because its probes take as long again. A variable only so the smoke
// test can lower it.
var minTimedPasses = 5

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name         string             `json:"name"`
	Size         string             `json:"size"`
	Seed         int64              `json:"seed"`
	RunSeed      int64              `json:"run_seed"`
	SeedHonoured bool               `json:"seed_honoured"` // false everywhere: see tcpRunSeed
	Procs        int                `json:"procs"`
	SimDigest    string             `json:"sim_digest"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailShare    float64            `json:"fail_share"`
	Problems     []string           `json:"problems,omitempty"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	Layers       map[string]float64 `json:"per_layer,omitempty"`
	Ledger       *ledgerOut         `json:"ledger,omitempty"`

	tracer *tracer
}

func (r *workloadResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload runs the protocol on one workload: GC, one discarded
// warm-up pass, the timed passes with tracing off and, when tracing is
// asked for, one traced pass (next to the timed ones, so the host state
// they are compared under is the same) and the probes.
func runWorkload(w workloadDef, o runOpts) *workloadResult {
	res := &workloadResult{
		Name: w.Name, Size: w.Size(o.Scale), Seed: o.Seed, RunSeed: w.RunSeed,
		Procs:    w.Procs,
		EndToEnd: map[string]summary{},
	}
	ctx := passCtx{Scale: o.Scale, Parent: -1}

	measurePass(w, ctx) // warm-up: fills pools, blueprint caches and the heap

	var passes []passMeasure
	start := time.Now()
	for len(passes) < minTimedPasses || (!o.Trace && time.Since(start).Seconds() < o.Seconds) {
		passes = append(passes, measurePass(w, ctx))
	}
	outs := make([]*passOut, len(passes))
	for i, p := range passes {
		outs[i] = p.Out
	}
	ref := outs[0]
	res.SimDigest = ref.Digest
	res.account(outs, ref)
	if ref.Failed > 0 {
		res.problemf("%d of %d cells failed (panicked or left flows unfinished)", ref.Failed, ref.Cells)
	}

	col := func(f func(passMeasure) float64) summary {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return summarize(xs)
	}
	res.EndToEnd["wall_s"] = col(func(p passMeasure) float64 { return p.Wall })
	res.EndToEnd["cpu_s"] = col(func(p passMeasure) float64 { return p.CPU })
	res.EndToEnd["mpkts_per_s"] = col(func(p passMeasure) float64 { return ratio(float64(p.Out.Packets), p.Wall) / 1e6 })
	res.EndToEnd["setup_s"] = col(func(p passMeasure) float64 { return p.Out.Setup.Seconds() })
	res.EndToEnd["peak_heap_mb"] = col(func(p passMeasure) float64 { return p.PeakHeapMB })
	res.EndToEnd["alloc_mb"] = col(func(p passMeasure) float64 { return p.AllocMB })

	if o.Trace {
		res.Layers = map[string]float64{}
		res.countLayers(w, ref, passes)
		res.tracedPass(w, ctx, ref)
		res.probeLayers(w, o, ref)
		for name, v := range res.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.Layers[name] = 0
			}
		}
	}
	res.FailShare = ratio(float64(res.Failed), float64(res.Attempted))
	if o.Trace {
		res.Layers["fail_share"] = res.FailShare
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res
}

// account counts every cell of every pass as attempted. A pass whose
// digest differs from the reference pass fails all its cells: its
// simulated results are not the ones the other passes timed.
func (r *workloadResult) account(outs []*passOut, ref *passOut) {
	for _, o := range outs {
		r.Attempted += o.Cells
		if o.Digest != ref.Digest {
			r.Failed += o.Cells
			r.problemf("a pass's digest %.12s differs from pass 1's %.12s", o.Digest, ref.Digest)
			continue
		}
		r.Failed += o.Failed
	}
}

// countLayers fills the C and L rows from the reference pass's counts
// and the timed passes' MemStats.
func (r *workloadResult) countLayers(w workloadDef, ref *passOut, passes []passMeasure) {
	L := r.Layers
	wall, cpu := r.EndToEnd["wall_s"].Median, r.EndToEnd["cpu_s"].Median
	ev, pk, flows := float64(ref.Events), float64(ref.Packets), float64(ref.Flows)
	L["sim.events"] = ev
	L["sim.events_per_pkt"] = ratio(ev, pk)
	L["sim.cascades_per_event"] = ratio(float64(ref.Sched.Cascades), ev)
	L["sim.dead_reclaimed_per_kflow"] = ratio(float64(ref.Sched.DeadReclaimed), flows) * 1000
	L["sim.heap_max"] = float64(ref.Sched.HeapMax)
	L["sim.mevents_per_s"] = ratio(ev, wall) / 1e6

	drops := float64(ref.Ctr.TotalDrops())
	L["fabric.pkts"] = pk
	L["fabric.drop_share"] = ratio(drops, pk+drops)
	L["fabric.ecn_mark_share"] = ratio(float64(ref.Ctr.ECNMarked), pk)
	L["fabric.pause_frames"] = float64(ref.Ctr.PauseFrames)

	L["transport.flows"] = flows
	L["transport.timeouts_per_kflow"] = ratio(ref.Timeouts, flows) * 1000
	L["transport.retx_share"] = ratio(float64(ref.RetxPkts), float64(ref.SentPkts))
	L["transport.incomplete"] = float64(ref.Incomplete)

	L["core.important_share"] = ratio(float64(ref.ImpBytes), float64(ref.TotalBytes))
	L["core.tlt_timeout_cut"], L["core.tlt_fg_p999_cut"] = 0, 0
	if ref.BaseTimeouts > 0 {
		L["core.tlt_timeout_cut"] = 1 - ref.TLTTimeouts/ref.BaseTimeouts
	}
	if ref.BaseFgP999 > 0 {
		L["core.tlt_fg_p999_cut"] = 1 - ref.TLTFgP999/ref.BaseFgP999
	}

	L["experiments.cells"] = float64(ref.Cells)
	L["experiments.par_efficiency"] = ratio(cpu, float64(w.Procs)*wall)

	var mallocs, cycles, gcShare []float64
	for _, p := range passes {
		mallocs = append(mallocs, float64(p.Mallocs))
		cycles = append(cycles, float64(p.GCCycles))
		gcShare = append(gcShare, ratio(p.GCCPU, p.CPU))
	}
	L["runtime.mallocs_per_flow"] = ratio(summarize(mallocs).Median, flows)
	L["runtime.gc_cycles"] = summarize(cycles).Median
	L["runtime.gc_cpu_share"] = summarize(gcShare).Median
}

// probeLayers fills the P rows and the stand-alone S rows (running them
// if this set has not yet) and the ledger built on the probes.
func (r *workloadResult) probeLayers(w workloadDef, o runOpts, ref *passOut) {
	o.Probes.ensure(o.Scale)
	got := o.Probes.got
	for name, pr := range got {
		r.Layers[name] = pr.Value
	}
	for name, v := range o.Probes.spans {
		r.Layers[name] = v
	}
	r.Layers["tcp.allocs_per_flow"] = o.Probes.allocs
	r.Problems = append(r.Problems, o.Probes.problems...)

	pkt := got["tcp.pkt_ns"]
	if w.Family == "roce" {
		pkt = meanProbe(got["dcqcn.pkt_ns"], got["hpcc.pkt_ns"])
	}
	measured := r.EndToEnd["wall_s"].Median
	if w.Procs > 1 {
		// Cells overlap on several workers, so the work the rows price
		// is CPU time, not elapsed time.
		measured = r.EndToEnd["cpu_s"].Median
	}
	led := computeLedger(ledgerIn{
		Events: float64(ref.Events), Packets: float64(ref.Packets),
		DataPkts: float64(ref.SentPkts), Flows: float64(ref.Flows),
		SetupS:    r.EndToEnd["setup_s"].Median,
		MeasuredS: measured,
		PostpopNs: got["sim.postpop_link_ns"].NsPerOp,
		Hop:       meanProbe(got["fabric.hop_ns_mtu"], got["fabric.hop_ns_ack"]),
		Pkt:       pkt,
		Flow:      got["tcp.flow_ns_8k"],
	})
	r.Ledger = &led
	r.Layers["ledger.predicted_s"] = led.PredictedS
	r.Layers["ledger.residual_share"] = led.ResidualShare
}

func meanProbe(a, b probeResult) probeResult {
	return probeResult{
		NsPerOp:     (a.NsPerOp + b.NsPerOp) / 2,
		EventsPerOp: (a.EventsPerOp + b.EventsPerOp) / 2,
		EnqPerOp:    (a.EnqPerOp + b.EnqPerOp) / 2,
		DataPerOp:   (a.DataPerOp + b.DataPerOp) / 2,
	}
}

// chaosRecoveryFlaps is chaos-recovery's densest flap plan as a spec.
const chaosRecoveryFlaps = "seed=1;flap:link=rand,at=200us,down=50us,every=500us"

// tracedPass reruns the workload with spans on: leaf-spine cells one at
// a time through experiments.Run, registry entries one RunEntry at a time.
func (r *workloadResult) tracedPass(w workloadDef, ctx passCtx, ref *passOut) {
	tr := newTracer(w.Name)
	r.tracer = tr
	L := r.Layers

	root := tr.begin("traced pass", -1)
	ctx.Tr, ctx.Parent = tr, root
	pm := measurePass(w, ctx)
	tr.end(root)
	r.account([]*passOut{pm.Out}, ref)
	wall := r.EndToEnd["wall_s"].Median
	L["trace.overhead_share"] = ratio(pm.Wall, wall) - 1
	cells := append([]float64(nil), pm.Out.CellWalls...)
	sort.Float64s(cells)
	var serial float64
	for _, c := range cells {
		serial += c
	}
	L["experiments.cell_wall_ms_p50"] = cells[len(cells)/2] * 1e3
	L["experiments.cell_wall_ms_max"] = cells[len(cells)-1] * 1e3
	L["experiments.grid_overhead_share"] = ratio(wall-serial, wall)
	L["experiments.render_ms"] = pm.Out.RenderWall.Seconds() * 1e3
}

// standAlone times the layer calls the stand-alone S rows name, three
// times each under a span of the set's own tracer, and checks one dctcp
// cell at shards 1 against shards 2.
func (ps *probeSet) standAlone(scale float64) {
	tr := newTracer("stand-alone")
	ps.tracer = tr
	L := map[string]float64{}
	ps.spans = L
	alone := tr.begin("stand-alone layer calls", -1)
	defer tr.end(alone)
	medianMs := func(name string, fn func()) float64 {
		var xs []float64
		for i := 0; i < 3; i++ {
			id := tr.begin(name, alone)
			fn()
			xs = append(xs, tr.end(id).Seconds()*1e3)
		}
		return summarize(xs).Median
	}
	delay := 10 * sim.Microsecond
	L["topo.leafspine_build_ms"] = medianMs("topo.LeafSpine", func() {
		topo.LeafSpine(sim.New(), topo.DefaultLeafSpine(delay))
	})
	fatTree := func(k int) func() {
		return func() {
			topo.FatTree(sim.New(), topo.FatTreeConfig{K: k, LinkRateBps: 40e9, LinkDelay: delay, Switch: dctcpSwitch()})
		}
	}
	L["topo.fattree_k8_build_ms"] = medianMs("topo.FatTree k=8", fatTree(8))
	L["topo.fattree_k16_build_ms"] = medianMs("topo.FatTree k=16", fatTree(16))

	// One dctcp cell of the Fig. 5 matrix: its schedule for the Generate
	// span, and below for the shards 1 / shards 2 comparison.
	cell := leafSpineCells([]experiments.Variant{{Transport: "dctcp"}}, scale, tcpBgFlows, tcpRunSeed)[0]
	traffic := cell.Traffic
	traffic.Seed = cell.Seed
	flows := 0
	genMs := medianMs("workload.Generate", func() { flows = len(workload.Generate(traffic, 1)) })
	L["workload.generate_ns_per_flow"] = ratio(genMs*1e6, float64(flows))

	L["chaos.resolve_ms"] = medianMs("chaos.Parse+ApplyResolved", func() {
		plan, err := chaos.Parse(chaosRecoveryFlaps)
		if err != nil {
			ps.problemf("chaos.Parse: %v", err)
			return
		}
		g := sim.NewGroup(1, delay)
		cfg := topo.DefaultLeafSpine(delay)
		cfg.Group = g
		net := topo.LeafSpine(g.Shard(0), cfg)
		if _, err := plan.ApplyResolved(net, 1, 3*sim.Second); err != nil {
			ps.problemf("chaos.ApplyResolved: %v", err)
		}
	})

	// The cell at shards 1 and at shards 2 on 2 workers: the results must
	// be identical, and the ratio is what sharding costs (or saves) on
	// this host.
	shardRun := func(shards int) (string, float64) {
		rc := cell
		rc.Shards, rc.Workers = shards, shards
		id := tr.begin(fmt.Sprintf("experiments.Run dctcp shards=%d", shards), alone)
		res := experiments.Run(rc)
		d := tr.end(id).Seconds()
		line, _, _ := renderResult("dctcp", res)
		return line, d
	}
	one, w1 := shardRun(1)
	two, w2 := shardRun(2)
	if one != two {
		ps.problemf("dctcp cell differs between shards 1 and shards 2")
	}
	L["sim.shards2_wall_ratio"] = ratio(w2, w1)
}
