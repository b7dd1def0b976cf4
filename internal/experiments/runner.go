package experiments

import (
	"cmp"
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

// RunConfig describes one cell: a topology, a source of flows on it and
// the knobs of the run. The source picks the sink its flows report to
// (stats.Recorder or stats.Stream). The zero Topology and Source are the
// leaf-spine and the materialised Traffic schedule, so a RunConfig of
// Variant, Traffic and Seed alone is a leaf-spine cell.
type RunConfig struct {
	Variant Variant
	Traffic workload.TrafficConfig
	Seed    int64
	Horizon sim.Time // 0 → the source's own (Traffic: last arrival + 3 s)

	// Shards partitions the fabric across that many event loops
	// (conservative parallel DES with link-latency lookahead); 0 and 1
	// both mean a single shard. Reports are byte-identical across shard
	// counts. Runs that attach cross-shard observers (Audit,
	// CollectDelivery, CollectRTT) and topologies that cannot be
	// partitioned (the testbed star, the dumbbell) run on one shard. The
	// run says nothing about it, because a harness note naming the shard
	// count would itself break cross-shard-count byte-identity; tltsim
	// prints one note on stderr at session start when -audit meets
	// -shards > 1.
	Shards int
	// Workers caps the goroutines driving the shard group (0 → one per
	// shard). The grid sets this from its run-slot budget.
	Workers int

	// Topology is the network the cell runs on (nil: leafSpine{}).
	Topology Topology
	// Source is what runs on it (nil: the Traffic schedule).
	Source Source

	CollectDelivery bool
	CollectRTT      bool
	SampleQueues    bool

	// Faults, when non-nil, applies a deterministic chaos schedule to
	// the network (RunGrid fills in the session harness plan when nil).
	Faults *chaos.Plan
	// Audit attaches the strict runtime invariant auditor to every
	// switch and TLT sender (RunGrid or's in the session harness flag).
	Audit bool
	// Prepare, when set, runs after the network is built and flows are
	// registered but before the simulation starts — a hook for tests
	// that install deterministic drop filters or probes.
	Prepare func(s *sim.Sim, net *topo.Network)

	// Custom, when set, replaces Run for the cell. It is the grid
	// executor tests' seam for fake cells; no figure sets it.
	Custom func(rc RunConfig) *Result
	// Label names the cell in replay notes when Variant alone is not
	// enough (testbed cells, sweep points).
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
	// App carries a source's payload (the scale sweep's merged stream,
	// the testbed figures' response times and counters) for its fold.
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

// A Source is what runs on a cell's network. start sets its flows up on
// the sink of its choice and returns the horizon the run ends at, unless
// the source's own stop rule ends it first, and the finish that fills the
// source's part of the Result once the run has ended.
type Source interface {
	start(c *cell) (horizon sim.Time, finish func(*Result))
	// audited reports whether the strict invariant auditor can follow
	// the source; -audit on a source that cannot is noted, not applied.
	audited() bool
}

// cell is one run in progress: what the driver built, for its source.
type cell struct {
	rc    RunConfig
	g     *sim.Group
	net   *topo.Network
	ar    *arena
	audit core.Audit // hooks every TLT marking machine; nil unless auditing
	// tick is the queue-sampling period the source asks for (0: none);
	// queues is the merged max-queue series once the run has ended.
	tick   sim.Time
	queues []int64
}

// Run executes one cell. It is the one driver: it builds the topology
// on a shard group in the slot's arena, attaches the auditor, starts the
// source, applies the fault plan, runs the group to the source's horizon
// or stop, and fills the Result.
func Run(rc RunConfig) *Result {
	setupStart := time.Now()
	tp, src := rc.Topology, rc.Source
	if tp == nil {
		tp = leafSpine{}
	}
	if src == nil {
		src = schedule{}
	}
	unaudited := rc.Audit && !src.audited()
	if unaudited {
		rc.Audit = false
	}
	shards := max(rc.Shards, 1)
	if rc.Audit || rc.CollectDelivery || rc.CollectRTT {
		// These observers read state across the whole fabric from event
		// callbacks; keep them on one shard. Not noted in the Result (see
		// the Shards field comment).
		shards = 1
	}
	ar := rc.arena()
	g, net := tp.build(rc.Variant, rc.Seed, shards)
	ar.attach(g, net)
	c := &cell{rc: rc, g: g, net: net, ar: ar}
	var aud *audit.Auditor
	if rc.Audit {
		aud = attachAudit(g.Shard(0), net)
		c.audit = aud
	}
	horizon, finish := src.start(c)
	if rc.Horizon > 0 {
		horizon = rc.Horizon
	}

	// The horizon is fixed before fault application: the resolved chaos
	// engine expands repeat chains statically up to it.
	var eng *chaos.Engine
	if !rc.Faults.Empty() {
		var err error
		eng, err = rc.Faults.ApplyResolved(net, rc.Seed, horizon)
		if err != nil {
			res := &Result{Rec: stats.NewRecorder(), Panicked: true}
			res.Notef("%s seed %d: bad fault plan: %v", rc.label(), rc.Seed, err)
			ar.release(g, net)
			return res
		}
	}
	if rc.Prepare != nil {
		rc.Prepare(g.Shard(0), net)
	}
	var queues func() []int64
	if c.tick > 0 {
		queues = sampleQueues(g, net, c.tick)
	}

	g.SetWorkers(cmp.Or(rc.Workers, g.Shards()))
	setupWall := time.Since(setupStart)
	end := g.Run(horizon)
	net.FinishPausedClocks()
	if queues != nil {
		c.queues = queues()
	}

	res := &Result{
		Ctr:         net.Counters(),
		PausedFrac:  net.PausedFraction(end),
		Elapsed:     end,
		SetupWall:   setupWall,
		ShardEvents: make([]uint64, g.Shards()),
	}
	for i := range res.ShardEvents {
		ss := g.Shard(i)
		res.ShardEvents[i] = ss.Processed
		res.EventsRun += ss.Processed
		res.Sched.Add(&ss.Sched)
	}
	for _, sw := range net.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			res.MaxQ = max(res.MaxQ, sw.MaxQueueBytes(p))
			res.MaxRedQ = max(res.MaxRedQ, sw.MaxRedQueueBytes(p))
		}
	}
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
	finish(res)
	if unaudited {
		res.Notef("-audit is not honoured by %s (streaming runner): it ran unaudited", rc.label())
	}
	ar.release(g, net)
	return res
}

// schedule is the default source: rc.Traffic materialised, every flow
// registered at set-up on an exact stats.Recorder. The run stops once
// every flow is done.
type schedule struct{}

func (schedule) audited() bool { return true }

func (schedule) start(c *cell) (sim.Time, func(*Result)) {
	rc := c.rc
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

	// A flow can finalize from both sides in a sharded run (sender abort
	// racing a completion in flight), and the two closures run on
	// different shards, so completion accounting is a per-flow CAS plus
	// an atomic remaining count. Generate numbers the flows densely from
	// 1, so a flow's slot is its ID-1.
	var remaining atomic.Int64
	remaining.Store(int64(len(flows)))
	doneSlots := make([]atomic.Bool, len(flows))
	onDone := func(fr *stats.FlowRecord) {
		i := int(fr.Flow.ID) - 1
		if uint(i) >= uint(len(doneSlots)) {
			panic(fmt.Sprintf("flow ID %d outside [1, %d]", fr.Flow.ID, len(doneSlots)))
		}
		if !doneSlots[i].CompareAndSwap(false, true) {
			return
		}
		if remaining.Add(-1) == 0 {
			c.g.RequestStop()
		}
	}
	reporters := startFlows(c.ar, c.net, flows, rc.Variant, rec, onDone, c.audit)
	c.ar.trimEndpoints(len(flows) == 0)
	last := sim.Time(0)
	if len(flows) > 0 {
		last = flows[len(flows)-1].Start
	}
	if rc.SampleQueues {
		c.tick = 20 * sim.Microsecond
	}
	return last + 3*sim.Second, func(res *Result) {
		res.Rec, res.FlowCount, res.TrafficLast = rec, len(flows), last
		res.Incomplete, res.Aborted = int(remaining.Load()), rec.AbortedCount()
		for _, q := range c.queues {
			res.QSamples = append(res.QSamples, float64(q))
		}
		if res.Incomplete == 0 {
			return
		}
		// The stall watchdog: every sender still unfinished at the
		// horizon reports its transport state.
		for _, r := range reporters {
			if fs := r.FlowStatus(); !fs.Done {
				res.Stalls = append(res.Stalls, fs)
			}
		}
		res.Notef("%s seed %d: incomplete=%d of %d flows at horizon %v",
			rc.Variant.Name(), rc.Seed, res.Incomplete, len(flows), res.Elapsed)
		for i, fs := range res.Stalls {
			if i == 4 {
				res.Notef("stall: … %d more stalled flows", len(res.Stalls)-i)
				break
			}
			res.Notef("stall: %s", fs)
		}
	}
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
// pause wait-for graph from (deadlock/storm detection).
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

// meanGbps formats the mean of xs in Gbit/s, n/a when nothing was measured.
func meanGbps(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fGbps", stats.Mean(xs))
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
