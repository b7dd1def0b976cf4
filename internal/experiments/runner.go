package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"tlt/internal/audit"
	"tlt/internal/chaos"
	"tlt/internal/core"
	"tlt/internal/fabric"
	_ "tlt/internal/fabric/mmu" // register bshare/tiny/bfc policies
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/hpcc"
	"tlt/internal/workload"
)

// RunConfig describes one leaf-spine simulation run.
type RunConfig struct {
	Variant Variant
	Traffic workload.TrafficConfig
	Seed    int64
	Horizon sim.Time // 0 → last arrival + 3 s

	// Shards partitions the fabric across that many event loops
	// (conservative parallel DES with link-latency lookahead); 0 and 1
	// both mean a single shard. Reports are byte-identical across shard
	// counts. Runs that attach cross-shard observers (Audit,
	// CollectDelivery, CollectRTT) are clamped to one shard. The run says
	// nothing about it, because a harness note naming the shard count
	// would itself break cross-shard-count byte-identity; tltsim prints
	// one note on stderr at session start when -audit meets -shards > 1.
	Shards int
	// Workers caps the goroutines driving the shard group (0 → one per
	// shard). The grid sets this from its run-slot budget.
	Workers int

	// AlphaOverride replaces the dynamic-threshold parameter (ablation).
	AlphaOverride float64
	// BufferOverride replaces the switch shared-buffer size in bytes
	// (buffer-policy ablation). PFC XOFF/XON thresholds are re-derived
	// from the new size when PFC is on.
	BufferOverride int64

	CollectDelivery bool
	CollectRTT      bool
	SampleQueues    bool

	// Faults, when non-nil, applies a deterministic chaos schedule to
	// the network (RunGrid fills in the session harness plan when nil).
	Faults *chaos.Plan

	// WatchdogThreshold, when non-zero, enables the commodity-style PFC
	// watchdog on every switch: a port paused continuously for this long
	// has its queue flushed and unpaused. WatchdogRestore is the
	// post-mitigation window during which further PAUSE frames on the
	// port are ignored (0 → fabric default).
	WatchdogThreshold sim.Time
	WatchdogRestore   sim.Time
	// HostPauseTimeout, when non-zero, bounds how long a host NIC honors
	// a PAUSE without refresh before self-resuming (NIC pause auto-expiry
	// — the end-host half of storm protection).
	HostPauseTimeout sim.Time
	// Audit attaches the strict runtime invariant auditor to every
	// switch and TLT sender (RunGrid or's in the session harness flag).
	Audit bool
	// Prepare, when set, runs after the network is built and flows are
	// registered but before the simulation starts — a hook for tests
	// that install deterministic drop filters or probes.
	Prepare func(s *sim.Sim, net *topo.Network)

	// Custom, when set, replaces the standard leaf-spine Run for this
	// cell: the app and testbed figures build their own topologies but
	// still execute on the shared grid. The function receives the fully
	// resolved config (seed, harness plan, audit flag).
	Custom func(rc RunConfig) *Result
	// Label names the cell in panic-replay notes when Variant alone is
	// not enough (custom cells, sweep points).
	Label string

	// mem is the arena of the grid slot running the cell (RunGrid sets
	// it); nil outside a grid, where the driver makes its own.
	mem *arena
}

// label names the cell for replay notes.
func (rc RunConfig) label() string {
	if rc.Label != "" {
		return rc.Label
	}
	return rc.Variant.Name()
}

// Result aggregates everything a figure needs from one run.
type Result struct {
	Rec        *stats.Recorder
	Ctr        fabric.Counters
	PausedFrac float64
	Elapsed    sim.Time
	FlowCount  int
	Incomplete int
	MaxQ       int64     // max egress queue across the fabric
	MaxRedQ    int64     // max red (unimportant) occupancy
	QSamples   []float64 // sampled max-queue time series (bytes)
	EventsRun  uint64
	// ShardEvents breaks EventsRun down by shard (length = shard count),
	// so bench records can show partition balance.
	ShardEvents []uint64
	// Sched carries the run's scheduler-internal counters (dead-timer
	// reclamations, cascades, far-future pressure).
	Sched       sim.SchedStats
	TrafficLast sim.Time // last flow arrival
	// SetupWall is the host wall-clock spent building the cell — topology,
	// flow registration, fault resolution — before its event loops start.
	// Filled by the standard and scale runners; custom figure cells that
	// build their own topologies leave it zero.
	SetupWall time.Duration

	// Faults aggregates injected-fault activity and audit findings.
	Faults stats.FaultCounters
	// AuditEvents counts events the invariant auditor checked (0 when
	// auditing is off).
	AuditEvents int64
	// Stalls holds the stall-watchdog snapshot of every incomplete
	// flow's sender at the horizon (empty when all flows finished).
	Stalls []transport.FlowStatus
	// Aborted counts flows whose senders gave up (retry exhaustion);
	// they are terminal but never counted as completed.
	Aborted int

	// Notes carries this run's harness messages (incomplete warnings,
	// stall reports, panic captures); the grid executor merges them
	// into the report in cell order.
	Notes []string
	// Panicked marks a cell that was recovered by the grid executor;
	// folds skip it.
	Panicked bool
	// App carries a custom run's payload (incast FCT vectors, dumbbell
	// counters, ...) for its figure's fold.
	App any

	// fgSorted/bgSorted cache the sorted FCT vectors so the repeated
	// quantile queries of one fold (p99.9, p99, mean) sort once.
	fgSorted, bgSorted []float64
}

// Notef appends a formatted harness note to the result.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// sortedFCTs returns the run's completed-flow FCTs for a class, sorted
// ascending, computing and caching them on first use. Results are read
// by a single fold goroutine, so the lazy fill needs no lock.
func (r *Result) sortedFCTs(fg bool) []float64 {
	c := &r.bgSorted
	if fg {
		c = &r.fgSorted
	}
	if *c == nil && r.Rec != nil {
		xs := r.Rec.Select(fg)
		sort.Float64s(xs)
		if xs == nil {
			xs = []float64{} // remember "computed, empty"
		}
		*c = xs
	}
	return *c
}

// FgP returns the p-quantile of foreground FCTs in seconds.
func (r *Result) FgP(p float64) float64 { return stats.PercentileSorted(r.sortedFCTs(true), p) }

// BgMean returns the mean background FCT in seconds.
func (r *Result) BgMean() float64 { return stats.Mean(r.sortedFCTs(false)) }

// TimeoutsPer1k returns RTO expirations per thousand flows.
func (r *Result) TimeoutsPer1k() float64 {
	if r.FlowCount == 0 {
		return 0
	}
	return float64(r.Rec.TimeoutsAll()) / float64(r.FlowCount) * 1000
}

// PausesPer1k returns PFC pause frames per thousand flows.
func (r *Result) PausesPer1k() float64 {
	if r.FlowCount == 0 {
		return 0
	}
	return float64(r.Ctr.PauseFrames) / float64(r.FlowCount) * 1000
}

// ImpLossRate returns the loss rate of important (green) packets.
func (r *Result) ImpLossRate() float64 {
	den := r.Ctr.EnqGreen + r.Ctr.DropGreen
	if den == 0 {
		return 0
	}
	return float64(r.Ctr.DropGreen) / float64(den)
}

// Run executes one leaf-spine simulation.
func Run(rc RunConfig) *Result {
	setupStart := time.Now()
	v := rc.Variant

	shards := rc.Shards
	if shards < 1 {
		shards = 1
	}
	if rc.Audit || rc.CollectDelivery || rc.CollectRTT {
		// These observers read state across the whole fabric from event
		// callbacks; keep them on one shard. Not noted in the Result (see
		// the Shards field comment).
		shards = 1
	}
	ar := rc.arena()
	g := sim.NewGroup(shards, v.linkDelay())
	s := g.Shard(0)

	lsCfg := topo.DefaultLeafSpine(v.linkDelay())
	lsCfg.Group = g
	lsCfg.Switch = v.switchConfig()
	if rc.AlphaOverride > 0 {
		lsCfg.Switch.Alpha = rc.AlphaOverride
	}
	if rc.BufferOverride > 0 {
		lsCfg.Switch.BufferBytes = rc.BufferOverride
		if lsCfg.Switch.PFC {
			lsCfg.Switch.XOff = lsCfg.Switch.BufferBytes / (2 * 12)
			lsCfg.Switch.XOn = lsCfg.Switch.XOff - 2*int64(transport.MSS+48)
		}
	}
	if rc.WatchdogThreshold > 0 {
		lsCfg.Switch.PFCWatchdog = true
		lsCfg.Switch.WatchdogThreshold = rc.WatchdogThreshold
		lsCfg.Switch.WatchdogRestore = rc.WatchdogRestore
	}
	lsCfg.HostPauseTimeout = rc.HostPauseTimeout
	lsCfg.SeedSalt = rc.Seed
	net := topo.LeafSpine(s, lsCfg)
	ar.attach(net)

	tr := rc.Traffic
	tr.Seed = rc.Seed
	flows := workload.Generate(tr, 1)

	rec := stats.NewRecorder()
	rec.Reserve(len(flows))
	if rc.CollectDelivery {
		rec.DeliverySamples = stats.NewReservoir(200_000, rc.Seed)
	}
	if rc.CollectRTT {
		rec.RTTSamplesFG = stats.NewReservoir(100_000, rc.Seed)
		rec.RTOSamplesFG = stats.NewReservoir(100_000, rc.Seed+1)
		rec.RTTSamplesBG = stats.NewReservoir(100_000, rc.Seed+2)
		rec.RTOSamplesBG = stats.NewReservoir(100_000, rc.Seed+3)
	}

	var aud *audit.Auditor
	var coreAudit core.Audit // stays a nil interface unless auditing is on
	if rc.Audit {
		aud = attachAudit(s, net)
		coreAudit = aud
	}

	// A flow can finalize from both sides in a sharded run (sender abort
	// racing a completion in flight), and the two closures run on
	// different shards, so completion accounting is a per-flow CAS plus
	// an atomic remaining count. rec.Flows is index-aligned with flows
	// (startFlows registers records in flow order) and the map is fully
	// built before the run starts, so the concurrent reads are safe.
	var remaining atomic.Int64
	remaining.Store(int64(len(flows)))
	doneSlots := make([]atomic.Bool, len(flows))
	flowIdx := make(map[*stats.FlowRecord]int, len(flows))
	onDone := func(fr *stats.FlowRecord) {
		i, ok := flowIdx[fr]
		if !ok || !doneSlots[i].CompareAndSwap(false, true) {
			return
		}
		if remaining.Add(-1) == 0 {
			g.RequestStop()
		}
	}
	reporters := startFlows(ar, net, flows, v, rec, onDone, coreAudit)
	ar.trimEndpoints(len(flows) == 0)
	for i, fr := range rec.Flows {
		flowIdx[fr] = i
	}

	// The horizon is fixed before fault application: the resolved chaos
	// engine expands repeat chains statically up to it.
	last := sim.Time(0)
	if len(flows) > 0 {
		last = flows[len(flows)-1].Start
	}
	horizon := rc.Horizon
	if horizon == 0 {
		horizon = last + 3*sim.Second
	}

	var eng *chaos.Engine
	if !rc.Faults.Empty() {
		var err error
		eng, err = rc.Faults.ApplyResolved(net, rc.Seed, horizon)
		if err != nil {
			res := &Result{Rec: rec, FlowCount: len(flows), Panicked: true}
			res.Notef("%s seed %d: bad fault plan: %v", rc.label(), rc.Seed, err)
			ar.release(net)
			return res
		}
	}
	if rc.Prepare != nil {
		rc.Prepare(s, net)
	}

	var queueSeries func() []int64
	if rc.SampleQueues {
		queueSeries = sampleQueues(g, net, 20*sim.Microsecond)
	}

	workers := rc.Workers
	if workers < 1 {
		workers = shards
	}
	g.SetWorkers(workers)
	setupWall := time.Since(setupStart)
	end := g.Run(horizon)
	net.FinishPausedClocks()

	var qSamples []float64
	if queueSeries != nil {
		for _, q := range queueSeries() {
			qSamples = append(qSamples, float64(q))
		}
	}

	res := &Result{
		Rec:         rec,
		Ctr:         net.Counters(),
		PausedFrac:  net.PausedFraction(end),
		Elapsed:     end,
		FlowCount:   len(flows),
		Incomplete:  int(remaining.Load()),
		QSamples:    qSamples,
		TrafficLast: last,
		SetupWall:   setupWall,
	}
	res.ShardEvents = make([]uint64, shards)
	for i := 0; i < shards; i++ {
		ss := g.Shard(i)
		res.ShardEvents[i] = ss.Processed
		res.EventsRun += ss.Processed
		res.Sched.Add(&ss.Sched)
	}
	for _, sw := range net.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			if q := sw.MaxQueueBytes(p); q > res.MaxQ {
				res.MaxQ = q
			}
			if q := sw.MaxRedQueueBytes(p); q > res.MaxRedQ {
				res.MaxRedQ = q
			}
		}
	}
	res.Aborted = rec.AbortedCount()
	if eng != nil {
		res.Faults = eng.Counters()
	}
	if aud != nil {
		aud.FinishPauses()
		res.Faults.AuditViolations = aud.Violations
		res.Faults.PFCDeadlockCycles = aud.DeadlockCycles
		res.Faults.PFCStormSuspects = aud.StormSuspects
		res.AuditEvents = aud.Events
	}
	if res.Incomplete > 0 {
		res.Stalls = stallReport(reporters)
		res.Notef("%s seed %d: incomplete=%d of %d flows at horizon %v",
			v.Name(), rc.Seed, res.Incomplete, len(flows), end)
		for i, fs := range res.Stalls {
			if i == 4 {
				res.Notef("stall: … %d more stalled flows", len(res.Stalls)-i)
				break
			}
			res.Notef("stall: %s", fs)
		}
	}
	ar.release(net)
	return res
}

// sampleQueues starts one max-queue sampler per shard, each reading only
// its own switches every tick, and returns the merge to call after the
// run joins: the per-shard series folded elementwise-max. Samplers stop
// at the group's stop latch, which flips at a window barrier, so the
// merged series is shard-count invariant.
func sampleQueues(g *sim.Group, net *topo.Network, tick sim.Time) func() []int64 {
	series := make([][]int64, g.Shards())
	for sh := range series {
		sh := sh
		ssim := g.Shard(sh)
		var mine []*fabric.Switch
		for i, sw := range net.Switches {
			if net.SwitchShard[i] == sh {
				mine = append(mine, sw)
			}
		}
		var sample func()
		sample = func() {
			maxQ := int64(0)
			for _, sw := range mine {
				for p := 0; p < sw.NumPorts(); p++ {
					if q := sw.QueueBytes(p); q > maxQ {
						maxQ = q
					}
				}
			}
			series[sh] = append(series[sh], maxQ)
			if !g.Stopping() {
				ssim.After(tick, sample)
			}
		}
		ssim.After(0, sample)
	}
	return func() []int64 {
		var merged []int64
		for _, qs := range series {
			for i, q := range qs {
				if i == len(merged) {
					merged = append(merged, q)
				} else if q > merged[i] {
					merged[i] = q
				}
			}
		}
		return merged
	}
}

// attachAudit puts the strict runtime invariant auditor on net — every
// packet pool, every switch, and the inter-switch adjacency it builds the
// pause wait-for graph from (deadlock/storm detection). Every run driver
// that honours -audit goes through here.
func attachAudit(s *sim.Sim, net *topo.Network) *audit.Auditor {
	for _, p := range net.Pools {
		p.EnableAudit()
	}
	aud := audit.New(s)
	for _, sw := range net.Switches {
		aud.AttachSwitch(sw)
	}
	for _, l := range net.SwitchLinks {
		aud.SetPortPeer(l.A, l.APort, l.B.ID())
		aud.SetPortPeer(l.B, l.BPort, l.A.ID())
	}
	return aud
}

// stallReport is the stall watchdog: it interrogates every sender that
// had not completed when the horizon expired, so an Incomplete count
// always comes with per-flow transport state instead of a bare number.
func stallReport(reporters []transport.StatusReporter) []transport.FlowStatus {
	var out []transport.FlowStatus
	for _, r := range reporters {
		if r == nil {
			continue
		}
		if fs := r.FlowStatus(); !fs.Done {
			out = append(out, fs)
		}
	}
	return out
}

// startFlows instantiates the right transport for every flow and returns
// the senders' status reporters (index-aligned with flows) for the stall
// watchdog. tltAudit, when non-nil, hooks every TLT marking machine.
// Every family's endpoints come from the arena.
func startFlows(ar *arena, net *topo.Network, flows []*transport.Flow, v Variant,
	rec *stats.Recorder, onDone func(*stats.FlowRecord), tltAudit core.Audit) []transport.StatusReporter {
	reporters := make([]transport.StatusReporter, 0, len(flows))
	switch v.Transport {
	case "tcp", "dctcp":
		cfg := v.tcpConfig()
		cfg.TLT.Audit = tltAudit
		for _, f := range flows {
			sm, rm := ar.mem(net, f)
			reporters = append(reporters, lend(&sm.tcp, &rm.tcp, net, f, cfg, rec, onDone))
		}
	case "dcqcn", "dcqcn-sack", "dcqcn-irn":
		cfg := v.dcqcnConfig()
		cfg.TLT.Audit = tltAudit
		for _, f := range flows {
			sm, rm := ar.mem(net, f)
			reporters = append(reporters, lend(&sm.dcqcn, &rm.dcqcn, net, f, cfg, rec, onDone))
		}
	case "hpcc":
		cfg := hpcc.DefaultConfig(net.BaseRTT + 2*sim.Microsecond)
		cfg.TLT = v.dcqcnConfig().TLT
		cfg.TLT.Audit = tltAudit
		cfg.RTO.MaxRetries = v.MaxRetries
		cfg.RTO.MaxBackoffShift = v.MaxBackoffShift
		for _, f := range flows {
			sm, rm := ar.mem(net, f)
			reporters = append(reporters, lend(&sm.hpcc, &rm.hpcc, net, f, cfg, rec, onDone))
		}
	default:
		panic("experiments: unknown transport " + v.Transport)
	}
	return reporters
}

// meanStd formats mean±std of xs as durations.
func meanStdDur(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	m := stats.Mean(xs)
	if len(xs) == 1 {
		return stats.FmtDur(m)
	}
	return stats.FmtDur(m) + "±" + stats.FmtDur(stats.Stddev(xs))
}

// median returns the middle value.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[len(c)/2]
}
