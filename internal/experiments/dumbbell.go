package experiments

import (
	"fmt"

	"tlt/internal/audit"
	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/tcp"
)

// Dumbbell reproduces §7.4 "Mixed traffic with PFC": a two-switch
// dumbbell where six senders burst 600 foreground flows of 32 kB while a
// seventh sender runs a long background flow across the same
// inter-switch link, with PFC enabled. The paper reports TLT cutting the
// PFC pause duration roughly in half (6.24 ms → 3.26 ms) and thereby
// recovering background goodput.
func Dumbbell(scale Scale) *Report {
	rep := &Report{
		ID:     "dumbbell",
		Title:  "Dumbbell mixed traffic with PFC (600 x 32kB fg + long bg flow)",
		Header: []string{"variant", "paused time", "bg goodput (burst)", "fg p99 FCT", "timeouts", "non-proactive drops"},
	}
	fgFlows := 600
	if scale.AppPoints > 0 {
		fgFlows = 120
	}
	sw := newSweep(rep)
	for _, tlt := range []bool{false, true} {
		v := Variant{Transport: "dctcp", TLT: tlt, PFC: true}
		rc := RunConfig{
			Label:   v.Name() + " dumbbell",
			Variant: v,
			// rc.Variant (not the captured v) carries the session -mmu/-fc
			// overrides folded in by RunGrid.
			Custom: func(rc RunConfig) *Result {
				return runDumbbell(rc, fgFlows)
			},
		}
		sw.add0(rc, scale.Seeds, func(rs []*Result) {
			var paused, goodput, fgP99 []float64
			timeouts := 0
			var drops int64
			for _, res := range rs {
				if res == nil || res.Panicked {
					continue
				}
				r := res.App.(*dumbbellResult)
				paused = append(paused, r.pausedTime.Seconds())
				goodput = append(goodput, r.bgGoodputBps/1e9)
				fgP99 = append(fgP99, r.fgP99)
				timeouts += r.timeouts
				drops += r.drops
			}
			rep.AddRow(v.Name(),
				meanStdDur(paused),
				fmt.Sprintf("%.2fGbps", stats.Mean(goodput)),
				meanStdDur(fgP99),
				fmt.Sprintf("%d", timeouts),
				fmt.Sprintf("%d", drops))
		})
	}
	sw.exec()
	rep.Note("paper: TLT halves PFC pause duration (6.24ms -> 3.26ms) and lifts bg goodput; TLT's color drops are proactive by design, all other drops stay 0")
	return rep
}

type dumbbellResult struct {
	pausedTime   sim.Time
	bgGoodputBps float64
	fgP99        float64
	timeouts     int
	drops        int64
}

func runDumbbell(rc RunConfig, fgFlows int) *Result {
	v, seed := rc.Variant, rc.Seed
	tlt := v.TLT
	ar := rc.arena()
	s := sim.New()
	swc := fabric.SwitchConfig{
		// Netberg Aurora 420 / Trident II: 12 MB shared buffer.
		BufferBytes: 12_000_000,
		Alpha:       1,
		ECN:         fabric.ECNStep,
		KEcn:        200_000,
		PFC:         true,
		MMU:         v.MMU,
		FC:          v.FC,
	}
	swc.XOff = swc.BufferBytes / 32
	swc.XOn = swc.XOff - 2096
	if tlt {
		swc.ColorThreshold = 270_000
	}
	// Aurora 420 testbed: hosts attach at 10 GbE, the inter-switch link
	// is 40 GbE. The foreground bottleneck is the receiver's access
	// port; the background flow shares only the cross link and the
	// senders' ingress ports — exactly the HoL-blocking setup.
	n := topo.Dumbbell(s, topo.DumbbellConfig{
		LeftHosts: 7, RightHosts: 2,
		LinkRateBps:  10e9,
		CrossRateBps: 40e9,
		LinkDelay:    2 * sim.Microsecond,
		Switch:       swc,
		SeedSalt:     seed,
	})
	ar.attach(n)
	rec := stats.NewRecorder()
	cfg := tcp.DCTCPConfig()
	cfg.TLT = core.Config{Enabled: tlt}
	var aud *audit.Auditor
	if rc.Audit {
		aud = attachAudit(s, n)
		cfg.TLT.Audit = aud
	}

	// Background: host 6 (left) streams to host 8 (right) continuously. It
	// never finishes, so its endpoints are not the arena's.
	bgFlow := &transport.Flow{ID: 1, Src: 6, Dst: 8, Size: 1 << 40}
	bgRec := rec.NewFlowRecord(bgFlow)
	bgSnd, bgRcv := tcp.NewConn(s, n.Hosts[6], n.Hosts[8], bgFlow, cfg, bgRec, rec)
	bgSnd.Write(1 << 40) // effectively unbounded

	// Foreground: 600 flows of 32 kB from hosts 0-5 to host 7, arriving
	// in synchronized waves of 60 once the background flow is at line
	// rate (the testbed generates them over a few tens of ms).
	start := 2 * sim.Millisecond
	id := packet.FlowID(2)
	for i := 0; i < fgFlows; i++ {
		wave := sim.Time(i/60) * 2 * sim.Millisecond
		f := &transport.Flow{
			ID: id, Src: packet.NodeID(i % 6), Dst: 7,
			Size: 32 * 1024, Start: start + wave + sim.Time(seed*31+int64(i%6))*100*sim.Nanosecond,
			FG: true,
		}
		id++
		sm, rm := ar.mem(n, f)
		lend(&sm.tcp, &rm.tcp, n, f, cfg, rec, nil)
	}

	// Measure background goodput over the contention window only (from
	// the burst start until the bulk of the foreground drains), as the
	// paper observes the degradation during the burst.
	s.Run(start)
	bgBefore := bgRcv.Delivered()
	window := 20 * sim.Millisecond
	s.Run(start + window)
	bgDuring := bgRcv.Delivered() - bgBefore
	s.Run(40 * sim.Millisecond) // let the foreground finish
	n.FinishPausedClocks()

	var pausedTotal sim.Time
	for _, tx := range n.Txs {
		pausedTotal += tx.PausedTotal
	}
	ctr := n.Counters()
	res := &Result{Rec: rec, EventsRun: s.Processed, Sched: s.Sched, App: &dumbbellResult{
		pausedTime:   pausedTotal,
		bgGoodputBps: float64(bgDuring) * 8 / window.Seconds(),
		fgP99:        stats.Percentile(rec.Select(true), 0.99),
		timeouts:     rec.TimeoutsAll(),
		drops:        ctr.TotalDrops() - ctr.DropRedColor, // non-proactive drops
	}}
	if aud != nil {
		res.AuditEvents = aud.Events
	}
	ar.release(n)
	return res
}
