package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlt/internal/experiments"
	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/workload"
)

// workloadDef is one set of inputs the benchmark runs. Why each exists
// is recorded next to it (and in BENCHMARK.json and README.md).
type workloadDef struct {
	Name string
	Why  string
	// RunSeed is the RunConfig.Seed the workload runs (see tcpRunSeed);
	// 0 where the public API takes no seed.
	RunSeed int64
	// Procs is the grid worker limit; only artifact-grid uses more than
	// one.
	Procs int
	// RequireComplete makes an unfinished flow a failed cell. It is off
	// for artifact-grid, whose switch-failure cells abort flows by
	// design.
	RequireComplete bool
	// Family picks the transport probe the ledger prices data packets
	// with.
	Family string
	// Size describes the inputs at the given scale.
	Size func(scale float64) string
	// Pass runs the workload once. With a tracer it runs one cell (or
	// one registry entry) at a time under a span each.
	Pass func(w workloadDef, c passCtx) *passOut
}

// passCtx carries one pass's parameters.
type passCtx struct {
	Scale  float64
	Tr     *tracer
	Parent int
}

// passOut is what one pass produced: the text the digest covers, the
// deterministic op counts, and the cell accounting.
type passOut struct {
	Render string
	Digest string

	Cells  int // grid cells attempted
	Failed int // cells that panicked or, where required, left flows unfinished

	Events  uint64
	Packets uint64
	Sched   sim.SchedStats
	Setup   time.Duration

	// Counts below are read from experiments.Result and stay zero on
	// the registry-driven workloads, whose Reports do not carry them
	// (fattree-churn fills the flow counts from its report columns).
	Ctr        fabric.Counters
	Flows      int64
	Incomplete int64
	Timeouts   float64
	SentPkts   int64
	RetxPkts   int64
	ImpBytes   int64
	TotalBytes int64
	// Paper-fidelity pair (dctcp vs dctcp+tlt): timeouts and fg p99.9.
	BaseTimeouts, TLTTimeouts float64
	BaseFgP999, TLTFgP999     float64

	// Traced pass only.
	CellWalls  []float64 // seconds per cell (per entry on registry workloads)
	RenderWall time.Duration
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// Nominal sizes at -scale 1. They are smaller than the sizes ISSUE.md
// measured (bg 60/60, 15000 requests, Scale{60,1,2}) so that a warm-up
// and five passes fit the driver's per-run budget on a 2-core host; the
// pass count was kept, as the issue asks.
const (
	tcpBgFlows    = 48
	roceBgFlows   = 32
	churnRequests = 10000
	gridBgFlows   = 36
)

// tcpRunSeed and roceRunSeed are the RunConfig.Seed values the two
// leaf-spine workloads run. -seed does not change them: the fig5/fig6
// traffic is a few dozen heavy-tailed background flows plus a Poisson
// number of 760-flow incasts, so one pass's packets, allocations and
// host time vary by more than 2x from one raw seed to the next (and
// per-packet cost by 30% at equal packet counts), which no 10% bound on
// host time survives. Both seeds draw the modal incast count (3 at bg 48,
// 2 at bg 32) and a packet count a little under the median of raw seeds
// 1..400.
const (
	tcpRunSeed  = 178
	roceRunSeed = 73
)

func tcpFig5Variants(base string) []experiments.Variant {
	return []experiments.Variant{
		{Transport: base},
		{Transport: base, TLP: true},
		{Transport: base, RTOMin: 200 * sim.Microsecond},
		{Transport: base, TLT: true},
		{Transport: base, PFC: true},
		{Transport: base, TLT: true, PFC: true},
	}
}

func roceFig6Variants() []experiments.Variant {
	var out []experiments.Variant
	for _, tr := range []string{"hpcc", "dcqcn-irn", "dcqcn-sack", "dcqcn"} {
		if tr == "dcqcn-irn" {
			out = append(out,
				experiments.Variant{Transport: tr},
				experiments.Variant{Transport: tr, TLT: true})
			continue
		}
		out = append(out,
			experiments.Variant{Transport: tr, PFC: true},
			experiments.Variant{Transport: tr},
			experiments.Variant{Transport: tr, TLT: true},
			experiments.Variant{Transport: tr, TLT: true, PFC: true})
	}
	return out
}

// leafSpineCells builds the comparison matrix on the default 96-host
// leaf-spine: every variant replays the same traffic schedule.
func leafSpineCells(variants []experiments.Variant, scale float64, bgFlows int, seed int64) []experiments.RunConfig {
	cells := make([]experiments.RunConfig, len(variants))
	for i, v := range variants {
		tr := workload.DefaultTraffic(0.4, scaled(bgFlows, scale, 4))
		tr.FgShare = 0.05
		// The incasts, not the background flows, are most of the work, so
		// a smoke-test scale thins them too (8 per sender at scale 1).
		tr.FlowsPerSender = scaled(tr.FlowsPerSender, scale, 1)
		cells[i] = experiments.RunConfig{Variant: v, Traffic: tr, Seed: seed, Shards: 1}
	}
	return cells
}

// runSerial runs cells one at a time through experiments.Run, each
// under a span, converting a panic into a Panicked result the way the
// grid executor does.
func runSerial(cells []experiments.RunConfig, c passCtx, walls *[]float64) []*experiments.Result {
	out := make([]*experiments.Result, len(cells))
	for i, rc := range cells {
		id := c.Tr.begin("experiments.Run "+rc.Variant.Name(), c.Parent)
		func() {
			defer func() {
				if r := recover(); r != nil {
					out[i] = &experiments.Result{Panicked: true, Notes: []string{fmt.Sprint(r)}}
				}
			}()
			out[i] = experiments.Run(rc)
		}()
		*walls = append(*walls, c.Tr.end(id).Seconds())
	}
	return out
}

// leafSpinePass runs one comparison matrix and folds the results.
// baseName/tltName pick the paper-fidelity pair.
func leafSpinePass(variants []experiments.Variant, bgFlows int, seed int64, baseName, tltName string, c passCtx) *passOut {
	cells := leafSpineCells(variants, c.Scale, bgFlows, seed)
	out := &passOut{Cells: len(cells)}
	var results []*experiments.Result
	if c.Tr == nil {
		results = experiments.RunGrid(cells, experiments.GridOpts{Procs: 1})
	} else {
		results = runSerial(cells, c, &out.CellWalls)
	}
	rid := c.Tr.begin("render", c.Parent)
	start := time.Now()
	var b strings.Builder
	for i, r := range results {
		name := variants[i].Name()
		if r == nil || r.Panicked {
			out.Failed++
			fmt.Fprintf(&b, "%s PANICKED\n", name)
			continue
		}
		if r.Incomplete > 0 {
			out.Failed++
		}
		line, sent, retx := renderResult(name, r)
		fmt.Fprintf(&b, "%s sched=%+v\n", line, r.Sched)
		for _, fr := range r.Rec.Flows {
			out.ImpBytes += fr.ImpBytes + fr.RxImpBytes
			out.TotalBytes += fr.TotalBytes + fr.RxTotalBytes
		}
		timeouts := float64(r.Rec.TimeoutsAll())
		p999 := r.FgP(0.999)
		out.Events += r.EventsRun
		out.Packets += uint64(r.Ctr.EnqGreen + r.Ctr.EnqRed)
		out.Sched.Add(&r.Sched)
		out.Setup += r.SetupWall
		out.Ctr.Add(&r.Ctr)
		out.Flows += int64(r.FlowCount)
		out.Incomplete += int64(r.Incomplete)
		out.Timeouts += timeouts
		out.SentPkts += sent
		out.RetxPkts += retx
		switch name {
		case baseName:
			out.BaseTimeouts, out.BaseFgP999 = timeouts, p999
		case tltName:
			out.TLTTimeouts, out.TLTFgP999 = timeouts, p999
		}
	}
	out.Render = b.String()
	out.RenderWall = time.Since(start)
	c.Tr.end(rid)
	out.seal()
	return out
}

// renderResult prints every simulated statistic of one cell that a
// speed-only change must leave alone; the pass digest covers it. The
// scheduler counters are kept out of it because cascades depend on each
// shard's wheel cursor, and this line must match across shard counts.
func renderResult(name string, r *experiments.Result) (line string, sent, retx int64) {
	for _, fr := range r.Rec.Flows {
		sent += int64(fr.SentPackets)
		retx += int64(fr.RetxPackets)
	}
	line = fmt.Sprintf("%s flows=%d incomplete=%d aborted=%d end=%d events=%d sent=%d retx=%d timeouts=%d "+
		"fgp999=%v fgp99=%v bgmean=%v maxq=%d ctr=%+v",
		name, r.FlowCount, r.Incomplete, r.Aborted, int64(r.Elapsed), r.EventsRun, sent, retx, r.Rec.TimeoutsAll(),
		r.FgP(0.999), r.FgP(0.99), r.BgMean(), r.MaxQ, r.Ctr)
	return line, sent, retx
}

// seal computes the pass digest over the rendered results plus the
// grid's op counts.
func (o *passOut) seal() {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nevents=%d packets=%d sched=%+v ctr=%+v\n", o.Render, o.Events, o.Packets, o.Sched, o.Ctr)
	o.Digest = fmt.Sprintf("%x", h.Sum(nil))
}

// artifactEntries are the artifacts the other three workloads do not
// reach.
var artifactEntries = []string{
	"fig12", "fig13", "fig14", "fig14c", "dumbbell", "fig16",
	"ablation-buffer", "chaos-recovery", "failure-recovery",
}

// registryPass runs registry entries through RunEntry on the shared
// worker pool: all at once when untraced (the way `tltsim -exp all`
// does), one at a time under a span each when traced.
func registryPass(w workloadDef, ids []string, scale experiments.Scale, c passCtx) *passOut {
	experiments.SetProcs(w.Procs)
	entries := make([]experiments.Entry, len(ids))
	for i, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			panic("bench: unknown experiment " + id)
		}
		entries[i] = e
	}
	reports := make([]*experiments.Report, len(entries))
	out := &passOut{}
	if c.Tr == nil {
		var wg sync.WaitGroup
		for i, e := range entries {
			wg.Add(1)
			go func(i int, e experiments.Entry) {
				defer wg.Done()
				reports[i] = experiments.RunEntry(e, scale)
			}(i, e)
		}
		wg.Wait()
	} else {
		for i, e := range entries {
			id := c.Tr.begin("experiments.RunEntry "+e.ID, c.Parent)
			reports[i] = experiments.RunEntry(e, scale)
			out.CellWalls = append(out.CellWalls, c.Tr.end(id).Seconds())
		}
	}
	rid := c.Tr.begin("render", c.Parent)
	start := time.Now()
	var b strings.Builder
	for _, rep := range reports {
		js, err := rep.JSON()
		if err != nil {
			panic(err) // a report of strings cannot fail to marshal
		}
		b.WriteString(rep.String())
		b.WriteString(rep.CSV())
		b.WriteString(js)
		b.WriteByte('\n')
		cells, events := rep.GridStats()
		out.Cells += cells
		out.Events += events
		out.Packets += rep.Packets()
		sched := rep.SchedStats()
		out.Sched.Add(&sched)
		out.Setup += rep.SetupWall()
		for _, n := range rep.Notes {
			if strings.Contains(n, "PANICKED") {
				out.Failed++
			}
		}
		foldFlowColumns(rep, w.RequireComplete, out)
	}
	out.Render = b.String()
	out.RenderWall = time.Since(start)
	c.Tr.end(rid)
	out.seal()
	return out
}

// foldFlowColumns reads the flow accounting a report exposes as columns
// (scale-sweep prints flows, done, to/1k and variant per cell).
func foldFlowColumns(rep *experiments.Report, requireComplete bool, out *passOut) {
	col := func(name string) int {
		for i, h := range rep.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	fi, di, ti, vi := col("flows"), col("done"), col("to/1k"), col("variant")
	if fi < 0 || di < 0 || ti < 0 || vi < 0 {
		return
	}
	for _, row := range rep.Rows {
		flows, err1 := strconv.ParseInt(row[fi], 10, 64)
		done, err2 := strconv.ParseInt(row[di], 10, 64)
		per1k, err3 := strconv.ParseFloat(row[ti], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue // an "n/a" row: its cell panicked and is already counted
		}
		timeouts := per1k * float64(flows) / 1000
		out.Flows += flows
		out.Incomplete += flows - done
		out.Timeouts += timeouts
		if requireComplete && done < flows {
			out.Failed++
		}
		if strings.HasSuffix(row[vi], "+tlt") {
			out.TLTTimeouts += timeouts
		} else {
			out.BaseTimeouts += timeouts
		}
	}
}

var workloads = []workloadDef{
	{
		Name: "leafspine-tcp",
		Why: "Fig. 5 matrix, {dctcp,tcp} x 6 loss-recovery variants on the 96-host leaf-spine: ACK-clocked traffic " +
			"where fabric and sim do the work, so datapath and scheduler constant factors show first; fixed seed",
		RunSeed:         tcpRunSeed,
		Procs:           1,
		RequireComplete: true,
		Family:          "tcp",
		Size: func(s float64) string {
			return fmt.Sprintf("12 cells, load 0.4, fg 0.05, bg=%d, RunGrid procs 1 shards 1", scaled(tcpBgFlows, s, 4))
		},
		Pass: func(w workloadDef, c passCtx) *passOut {
			variants := append(tcpFig5Variants("dctcp"), tcpFig5Variants("tcp")...)
			return leafSpinePass(variants, tcpBgFlows, w.RunSeed, "dctcp", "dctcp+tlt", c)
		},
	},
	{
		Name: "leafspine-roce",
		Why: "Fig. 6 matrix (hpcc, dcqcn-irn/-sack/gbn x PFC/lossy/TLT), 1 us links: rate-paced timers, INT, PFC and " +
			"PktBoard loss recovery; bypasses transport/tcp, so a tcp-only change must not move it; fixed seed",
		RunSeed:         roceRunSeed,
		Procs:           1,
		RequireComplete: true,
		Family:          "roce",
		Size: func(s float64) string {
			return fmt.Sprintf("14 cells, load 0.4, fg 0.05, bg=%d, RunGrid procs 1 shards 1", scaled(roceBgFlows, s, 4))
		},
		Pass: func(w workloadDef, c passCtx) *passOut {
			return leafSpinePass(roceFig6Variants(), roceBgFlows, w.RunSeed, "dcqcn", "dcqcn+tlt", c)
		},
	},
	{
		Name: "fattree-churn",
		Why: "scale-sweep on a k=8 fat-tree, open-loop RPC fan-in with churn: flow set-up/tear-down, map demux, " +
			"streaming stats and Go GC dominate, per-packet cost is a minority; fixed seed (the sweep's own)",
		Procs:           1,
		RequireComplete: true,
		Family:          "tcp",
		Size: func(s float64) string {
			return fmt.Sprintf("scale-sweep Scale{%d,1,1}: k=8, load 0.6, dctcp and dctcp+tlt, procs 1", scaled(churnRequests, s, 200))
		},
		Pass: func(w workloadDef, c passCtx) *passOut {
			sc := experiments.Scale{BgFlows: scaled(churnRequests, c.Scale, 200), Seeds: 1, AppPoints: 1}
			return registryPass(w, []string{"scale-sweep"}, sc, c)
		},
	},
	{
		Name: "artifact-grid",
		Why: "nine artifacts the others do not reach, run like tltsim -exp all on 2 workers: grid parallelism, all run " +
			"drivers, resolved chaos, bshare/tiny/bfc MMUs, exact Recorder folds; the sweeps' fixed seeds",
		Procs:  2,
		Family: "tcp",
		Size: func(s float64) string {
			return fmt.Sprintf("%s at Scale{%d,1,%d}, one goroutine per entry, procs 2",
				strings.Join(artifactEntries, ","), scaled(gridBgFlows, s, 4), scaled(2, s, 1))
		},
		Pass: func(w workloadDef, c passCtx) *passOut {
			sc := experiments.Scale{BgFlows: scaled(gridBgFlows, c.Scale, 4), Seeds: 1, AppPoints: scaled(2, c.Scale, 1)}
			return registryPass(w, artifactEntries, sc, c)
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
