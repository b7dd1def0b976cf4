package experiments

import (
	"fmt"

	"tlt/internal/app"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// load is a testbed source: the figure's own set-up on the cell (incast
// flows, the cache cluster, the dumbbell's mix) reporting to an exact
// stats.Recorder, run to a fixed horizon with no stop rule. The set-up
// returns what fills the figure's part of the Result.
type load struct {
	horizon sim.Time
	setup   func(c *cell, rec *stats.Recorder) func(*Result)
}

func (load) audited() bool { return true }

func (l load) start(c *cell) (sim.Time, func(*Result)) {
	rec := stats.NewRecorder()
	fill := l.setup(c, rec)
	return l.horizon, func(res *Result) {
		res.Rec = rec
		fill(res)
	}
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
				Label:    fmt.Sprintf("%s fig12 flows=%d", v.Name(), reqs),
				Variant:  v,
				Topology: testbedStar{10},
				// Configure from c.rc.Variant, not the captured v: RunGrid
				// folds the session -mmu/-fc overrides into rc.Variant only.
				Source: load{5 * sim.Second, func(c *cell, rec *stats.Recorder) func(*Result) {
					cl := app.NewCacheCluster(c.net.Sim, c.net.Hosts, c.rc.Variant.tcpConfig(), rec, 1)
					rts := cl.RunSetBurst(reqs, sim.Time(c.rc.Seed)*sim.Microsecond)
					return func(res *Result) {
						xs := durSecs(rts)
						if len(xs) != reqs {
							res.Notef("%s flows=%d seed=%d: only %d/%d requests completed", v.Name(), reqs, c.rc.Seed, len(xs), reqs)
						}
						res.App = xs
					}
				}},
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
			Label:    v.Name() + " fig13",
			Variant:  v,
			Topology: testbedStar{10},
			Source: load{5 * sim.Second, func(c *cell, rec *stats.Recorder) func(*Result) {
				// hosts[0]=client (unused), 1..8 web servers, 9=redis; the
				// bg sender is the client host to keep servers clean.
				cl := app.NewCacheCluster(c.net.Sim, c.net.Hosts, c.rc.Variant.tcpConfig(), rec, 1)
				mr := cl.RunMixed(152, c.net.Hosts[0], 8_000_000, 0)
				return func(res *Result) { res.App = mr }
			}},
		}
		sw.add0(rc, scale.Seeds, func(rs []*Result) {
			var p99s, goodputs []float64
			timeouts := 0
			for _, r := range rs {
				if r == nil || r.Panicked {
					continue
				}
				mr := r.App.(*app.MixedResult)
				p99s = append(p99s, stats.Percentile(durSecs(mr.FgRTs), 0.99))
				if mr.BgComplete {
					goodputs = append(goodputs, mr.BgGoodput*8/1e9)
				}
				timeouts += r.Rec.TimeoutsAll()
			}
			rep.AddRow(v.Name(), meanStdDur(p99s),
				meanGbps(goodputs), fmt.Sprintf("%d", timeouts))
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
				Label:    fmt.Sprintf("%s fig14 flows=%d", v.Name(), flowsN),
				Variant:  v,
				Topology: testbedStar{9},
				Source:   incast(flowsN),
			}
			sw.add0(rc, scale.Seeds, func(rs []*Result) {
				var p99s, p50s []float64
				timeouts := 0
				for _, r := range rs {
					if r == nil || r.Panicked {
						continue
					}
					sorted := stats.Sorted(r.Rec.Select(true))
					p99s = append(p99s, stats.PercentileSorted(sorted, 0.99))
					p50s = append(p50s, stats.PercentileSorted(sorted, 0.5))
					timeouts += r.Rec.TimeoutsAll()
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

// incast is the load behind Fig. 14: flowsN synchronized 32 kB flows
// from 8 servers to one client on the 9-host star, run 10 s.
func incast(flowsN int) load {
	return load{10 * sim.Second, func(c *cell, rec *stats.Recorder) func(*Result) {
		flows := make([]*transport.Flow, flowsN)
		for i := range flows {
			flows[i] = &transport.Flow{
				ID:  packet.FlowID(i + 1),
				Src: packet.NodeID(1 + i%8), Dst: 0,
				Size: 32 * 1024,
				// Tiny jitter stands in for request fan-out skew.
				Start: sim.Time(c.rc.Seed*17+int64(i)%8) * 100 * sim.Nanosecond,
				FG:    true,
			}
		}
		startFlows(c.ar, c.net, flows, c.rc.Variant, rec, nil, c.audit)
		return func(*Result) {} // fig14 folds read the recorder
	}}
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
			Label:    v.Name() + " fig14c",
			Seed:     1,
			Variant:  v,
			Topology: testbedStar{9},
			Source:   incast(100),
		}
		sw.cell(rc, func(res *Result) {
			sorted := stats.Sorted(res.Rec.Select(true))
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
