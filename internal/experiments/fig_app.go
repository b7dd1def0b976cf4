package experiments

import (
	"fmt"

	"tlt/internal/app"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
)

// testbedStar builds the 10-node testbed model (§6): a Tomahawk-class
// switch whose dynamic allocation lets a single busy port absorb up to
// ~1.8 MB, color threshold 270 kB (~BDP), ECN at 200 kB. The audit flag
// comes from the cell's RunConfig (resolved by RunGrid), never from
// global state, so concurrent cells stay independent. The network runs in
// ar's memory; the caller releases it once its Result is assembled.
func testbedStar(ar *arena, v Variant, hosts int, auditOn bool) (*sim.Sim, *topo.Network) {
	s := sim.New()
	swc := v.switchConfig()
	swc.BufferBytes = 3_600_000
	if v.TLT {
		swc.ColorThreshold = 270_000
	}
	n := topo.Star(s, topo.StarConfig{
		Hosts:       hosts,
		LinkRateBps: 40e9,
		LinkDelay:   2 * sim.Microsecond,
		Switch:      swc,
	})
	ar.attach(n)
	if auditOn {
		attachAudit(s, n)
	}
	return s, n
}

func durSecs(ts []sim.Time) []float64 {
	out := make([]float64, 0, len(ts))
	for _, t := range ts {
		if t > 0 {
			out = append(out, t.Seconds())
		}
	}
	return out
}

// Fig12 reproduces Figure 12: the Redis SET-burst benchmark — 99th
// percentile HTTP response time as the number of simultaneous requests
// (and hence 32 kB incast flows into the cache node) grows.
func Fig12(scale Scale) *Report {
	rep := &Report{
		ID:     "fig12",
		Title:  "In-memory cache burst: 99% response time vs number of flows",
		Header: []string{"variant", "flows", "p99 resp", "max resp", "timeouts"},
	}
	points := []int{20, 60, 100, 140, 180}
	if scale.AppPoints > 0 && scale.AppPoints < len(points) {
		points = points[:scale.AppPoints]
	}
	variants := []Variant{
		{Transport: "tcp"},
		{Transport: "tcp", TLT: true},
		{Transport: "dctcp"},
		{Transport: "dctcp", TLT: true},
	}
	sw := newSweep(rep)
	for _, v := range variants {
		for _, reqs := range points {
			rc := RunConfig{
				Label:   fmt.Sprintf("%s fig12 flows=%d", v.Name(), reqs),
				Variant: v,
				// Build from rc.Variant, not the captured v: RunGrid folds
				// the session -mmu/-fc overrides into rc.Variant only.
				Custom: func(rc RunConfig) *Result {
					ar := rc.arena()
					s, n := testbedStar(ar, rc.Variant, 10, rc.Audit)
					rec := stats.NewRecorder()
					cl := app.NewCacheCluster(s, n.Hosts, rc.Variant.tcpConfig(), rec, 1)
					rts := cl.RunSetBurst(reqs, sim.Time(rc.Seed)*sim.Microsecond)
					s.Run(5 * sim.Second)
					res := &Result{Rec: rec, EventsRun: s.Processed, Sched: s.Sched}
					xs := durSecs(rts)
					if len(xs) != reqs {
						res.Notef("%s flows=%d seed=%d: only %d/%d requests completed", v.Name(), reqs, rc.Seed, len(xs), reqs)
					}
					res.App = xs
					ar.release(n)
					return res
				},
			}
			sw.add0(rc, scale.Seeds, func(rs []*Result) {
				var p99s, maxs []float64
				timeouts := 0
				for _, r := range rs {
					if r == nil || r.Panicked {
						continue
					}
					sorted := stats.Sorted(r.App.([]float64))
					p99s = append(p99s, stats.PercentileSorted(sorted, 0.99))
					maxs = append(maxs, stats.PercentileSorted(sorted, 1))
					timeouts += r.Rec.TimeoutsAll()
				}
				rep.AddRow(v.Name(), fmt.Sprintf("%d", reqs),
					meanStdDur(p99s), meanStdDur(maxs), fmt.Sprintf("%d", timeouts))
			})
		}
	}
	sw.exec()
	rep.Note("paper: (DC)TCP response time explodes with fan-out and varies wildly; +TLT stays 213us-4.4ms with no timeouts")
	return rep
}

// mixedCell is the Fig13 per-seed payload.
type mixedCell struct {
	p99        float64
	goodput    float64
	bgComplete bool
}

// Fig13 reproduces Figure 13: one 8 MB background flow to the cache node
// competing with 152 foreground 32 kB SETs.
func Fig13(scale Scale) *Report {
	rep := &Report{
		ID:     "fig13",
		Title:  "Mixed traffic: 99% fg completion and bg goodput (8MB bg + 152 x 32kB fg)",
		Header: []string{"variant", "fg p99", "bg goodput", "timeouts"},
	}
	sw := newSweep(rep)
	for _, v := range []Variant{
		{Transport: "dctcp"},
		{Transport: "dctcp", TLT: true},
	} {
		rc := RunConfig{
			Label:   v.Name() + " fig13",
			Variant: v,
			Custom: func(rc RunConfig) *Result {
				ar := rc.arena()
				s, n := testbedStar(ar, rc.Variant, 10, rc.Audit)
				rec := stats.NewRecorder()
				// hosts[0]=client (unused), 1..8 web servers, 9=redis; the
				// bg sender is the client host to keep servers clean.
				cl := app.NewCacheCluster(s, n.Hosts, rc.Variant.tcpConfig(), rec, 1)
				mr := cl.RunMixed(152, n.Hosts[0], 8_000_000, 0)
				s.Run(5 * sim.Second)
				res := &Result{Rec: rec, EventsRun: s.Processed, Sched: s.Sched, App: mixedCell{
					p99:        stats.Percentile(durSecs(mr.FgRTs), 0.99),
					goodput:    mr.BgGoodput * 8 / 1e9,
					bgComplete: mr.BgComplete,
				}}
				ar.release(n)
				return res
			},
		}
		sw.add0(rc, scale.Seeds, func(rs []*Result) {
			var p99s, goodputs []float64
			timeouts := 0
			for _, r := range rs {
				if r == nil || r.Panicked {
					continue
				}
				mc := r.App.(mixedCell)
				p99s = append(p99s, mc.p99)
				if mc.bgComplete {
					goodputs = append(goodputs, mc.goodput)
				}
				timeouts += r.Rec.TimeoutsAll()
			}
			rep.AddRow(v.Name(), meanStdDur(p99s),
				fmt.Sprintf("%.2fGbps", stats.Mean(goodputs)), fmt.Sprintf("%d", timeouts))
		})
	}
	sw.exec()
	rep.Note("paper: DCTCP fg p99 up to 11.3ms vs 3.39ms with TLT (71%% better) at 5.6%% bg goodput cost")
	return rep
}

// Fig14 reproduces Figure 14: the testbed incast microbenchmark — a
// client fetches 32 kB from 8 servers over N concurrent flows.
func Fig14(scale Scale) *Report {
	rep := &Report{
		ID:     "fig14",
		Title:  "Incast microbenchmark: 99% FCT vs fan-out (32kB responses, 8 servers)",
		Header: []string{"variant", "flows", "p99 FCT", "p50 FCT", "timeouts"},
	}
	points := []int{8, 40, 80, 120, 160, 200}
	if scale.AppPoints > 0 && scale.AppPoints < len(points) {
		points = points[:scale.AppPoints]
	}
	variants := []Variant{
		{Transport: "tcp"},
		{Transport: "tcp", RTOMin: 200 * sim.Microsecond},
		{Transport: "tcp", TLT: true},
		{Transport: "dctcp"},
		{Transport: "dctcp", RTOMin: 200 * sim.Microsecond},
		{Transport: "dctcp", TLT: true},
	}
	sw := newSweep(rep)
	for _, v := range variants {
		for _, flowsN := range points {
			rc := RunConfig{
				Label:   fmt.Sprintf("%s fig14 flows=%d", v.Name(), flowsN),
				Variant: v,
				Custom:  incastCell(flowsN),
			}
			sw.add0(rc, scale.Seeds, func(rs []*Result) {
				var p99s, p50s []float64
				timeouts := 0
				for _, r := range rs {
					if r == nil || r.Panicked {
						continue
					}
					ir := r.App.(*incastResult)
					sorted := stats.Sorted(ir.fcts)
					p99s = append(p99s, stats.PercentileSorted(sorted, 0.99))
					p50s = append(p50s, stats.PercentileSorted(sorted, 0.5))
					timeouts += ir.timeouts
				}
				rep.AddRow(v.Name(), fmt.Sprintf("%d", flowsN),
					meanStdDur(p99s), meanStdDur(p50s), fmt.Sprintf("%d", timeouts))
			})
		}
	}
	sw.exec()
	rep.Note("paper: (DC)TCP hits the RTO cliff beyond ~40-50 flows; TLT absorbs 4x more flows with zero timeouts")
	return rep
}

type incastResult struct {
	fcts     []float64
	timeouts int
}

// incastCell is the grid cell behind Fig. 14: flowsN synchronized 32 kB
// flows from 8 servers to one client on the testbed star. The variant,
// seed and audit flag arrive through the resolved RunConfig.
func incastCell(flowsN int) func(rc RunConfig) *Result {
	return func(rc RunConfig) *Result {
		ar := rc.arena()
		s, n := testbedStar(ar, rc.Variant, 9, rc.Audit)
		rec := stats.NewRecorder()
		cfg := rc.Variant.tcpConfig()
		for i := 0; i < flowsN; i++ {
			f := &transport.Flow{
				ID:  packet.FlowID(i + 1),
				Src: packet.NodeID(1 + i%8), Dst: 0,
				Size: 32 * 1024,
				// Tiny jitter stands in for request fan-out skew.
				Start: sim.Time(rc.Seed*17+int64(i)%8) * 100 * sim.Nanosecond,
				FG:    true,
			}
			sm, rm := ar.mem(n, f)
			lend(&sm.tcp, &rm.tcp, n, f, cfg, rec, nil)
		}
		s.Run(10 * sim.Second)
		res := &Result{Rec: rec, EventsRun: s.Processed, Sched: s.Sched,
			App: &incastResult{fcts: rec.Select(true), timeouts: rec.TimeoutsAll()}}
		ar.release(n)
		return res
	}
}

// Fig14CDF prints the FCT distribution at a fixed fan-out (Figure 14c).
func Fig14CDF(scale Scale) *Report {
	rep := &Report{
		ID:     "fig14c",
		Title:  "Incast microbenchmark FCT distribution at 100 flows",
		Header: []string{"variant", "p25", "p50", "p75", "p90", "p99", "max"},
	}
	variants := []Variant{
		{Transport: "tcp"},
		{Transport: "tcp", RTOMin: 200 * sim.Microsecond},
		{Transport: "tcp", TLT: true},
	}
	sw := newSweep(rep)
	for _, v := range variants {
		rc := RunConfig{
			Label:   v.Name() + " fig14c",
			Seed:    1,
			Variant: v,
			Custom:  incastCell(100),
		}
		sw.cell(rc, func(res *Result) {
			ir := res.App.(*incastResult)
			sorted := stats.Sorted(ir.fcts)
			row := []string{v.Name()}
			for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				row = append(row, stats.FmtDur(stats.PercentileSorted(sorted, p)))
			}
			rep.AddRow(row...)
		})
	}
	sw.exec()
	return rep
}
