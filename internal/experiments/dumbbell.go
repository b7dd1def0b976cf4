package experiments

import (
	"fmt"

	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
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
			Label:    v.Name() + " dumbbell",
			Variant:  v,
			Topology: dumbbellNet{},
			Source:   dumbbellMix(fgFlows),
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
				fgP99 = append(fgP99, stats.Percentile(res.Rec.Select(true), 0.99))
				timeouts += res.Rec.TimeoutsAll()
				drops += res.Ctr.TotalDrops() - res.Ctr.DropRedColor // non-proactive drops
			}
			rep.AddRow(v.Name(),
				meanStdDur(paused),
				meanGbps(goodput),
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
}

// dumbbellMix is the dumbbell's load, run 40 ms: host 6 (left) streams to
// host 8 (right) for the whole run while fgFlows flows of 32 kB from
// hosts 0-5 to host 7 arrive in synchronized waves of 60 once the
// background flow is at line rate (the testbed generates them over a
// few tens of ms).
func dumbbellMix(fgFlows int) load {
	return load{40 * sim.Millisecond, func(c *cell, rec *stats.Recorder) func(*Result) {
		s, seed := c.net.Sim, c.rc.Seed
		cfg := c.rc.Variant.tcpConfig()
		cfg.TLT.Audit = c.audit
		// The background flow never finishes, so its endpoints are not
		// the arena's.
		bgFlow := &transport.Flow{ID: 1, Src: 6, Dst: 8, Size: 1 << 40}
		bgSnd, bgRcv := tcp.NewConn(s, c.net.Hosts[6], c.net.Hosts[8], bgFlow, cfg, rec.NewFlowRecord(bgFlow), rec)
		bgSnd.Write(1 << 40) // effectively unbounded

		// Background goodput counts over the contention window only (from
		// the burst start until the bulk of the foreground drains), as the
		// paper observes the degradation during the burst: the bytes
		// delivered by the window's end less those delivered by its start.
		const start, window = 2 * sim.Millisecond, 20 * sim.Millisecond
		var atStart, atEnd int64
		bgRcv.OnDeliver = func(total int64) {
			if now := s.Now(); now <= start {
				atStart, atEnd = total, total
			} else if now <= start+window {
				atEnd = total
			}
		}
		flows := make([]*transport.Flow, fgFlows)
		for i := range flows {
			wave := sim.Time(i/60) * 2 * sim.Millisecond
			flows[i] = &transport.Flow{
				ID: packet.FlowID(2 + i), Src: packet.NodeID(i % 6), Dst: 7,
				Size: 32 * 1024, Start: start + wave + sim.Time(seed*31+int64(i%6))*100*sim.Nanosecond,
				FG: true,
			}
		}
		startFlows(c.ar, c.net, flows, c.rc.Variant, rec, nil, c.audit)
		return func(res *Result) {
			var paused sim.Time
			for _, tx := range c.net.Txs {
				paused += tx.PausedTotal
			}
			res.App = &dumbbellResult{paused, float64(atEnd-atStart) * 8 / window.Seconds()}
		}
	}}
}
