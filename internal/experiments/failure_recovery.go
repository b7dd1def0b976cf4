package experiments

import (
	"fmt"
	"math"

	"tlt/internal/chaos"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// FailureRecovery measures how each transport family rides out
// failure-domain events: a spine switch dying mid-run (black-holing every
// flow hashed across it until the control plane reroutes) and an end-host
// PFC pause storm (mitigated by the switch watchdog and NIC pause
// expiry). Flows either complete or abort via retry exhaustion — the
// timeout-less claim under test is that TLT variants recover through
// ACK-clocked retransmission where the baselines burn RTOs (§5, §7.4).
func FailureRecovery(scale Scale) *Report {
	rep := &Report{
		ID:    "failure-recovery",
		Title: "recovery from switch failure and PFC pause storm",
		Header: []string{"fault", "variant", "fg p99 FCT", "timeouts/1k", "aborted",
			"incomplete", "goodput dip", "recovery", "wd fires", "pfc findings"},
	}
	sw := newSweep(rep)

	const faultAt = 200 * sim.Microsecond
	// A spine (index Tors..Tors+Spines-1 in topo.LeafSpine's switch
	// order) dies for 2 ms; the control plane reroutes around it 300 µs
	// after detection, leaving a deterministic black-hole window.
	swfail := &chaos.Plan{Seed: 1, SwFails: []chaos.SwitchFail{{
		Switch:   12, // first spine of the default 12-ToR fabric
		At:       faultAt,
		Duration: 2 * sim.Millisecond,
		Reroute:  300 * sim.Microsecond,
	}}}
	// Host 0's NIC jams its ToR ingress with continuously refreshed
	// PAUSE frames for 1 ms.
	storm := &chaos.Plan{Seed: 1, Storms: []chaos.PauseStorm{{
		Host: 0, At: faultAt, Duration: sim.Millisecond,
	}}}

	scenarios := []struct {
		label string
		plan  *chaos.Plan
		// watchdog/pause-expiry mitigation is only armed for the storm
		// scenario: the switch-failure case exercises reroute + retry.
		watchdog bool
	}{
		{"swfail", swfail, false},
		{"storm", storm, true},
	}
	variants := []Variant{
		{Transport: "dctcp"},
		{Transport: "dctcp", TLT: true},
		{Transport: "dcqcn", PFC: true},
		{Transport: "dcqcn", PFC: true, TLT: true},
		{Transport: "hpcc"},
	}
	for _, sc := range scenarios {
		for _, v := range variants {
			v := v
			// Retry exhaustion gives every flow a terminal state even if
			// the black-hole outlives its patience.
			v.MaxRetries = 8
			rc := RunConfig{
				Variant: v,
				Traffic: trafficFor(scale, 0.4, 0.05),
				Faults:  sc.plan,
			}
			if sc.watchdog {
				rc.Topology = leafSpine{watchdog: 200 * sim.Microsecond, pauseExpiry: 100 * sim.Microsecond}
			}
			label := sc.label
			sw.add(rc, scale.Seeds, func(rs []*Result) {
				ms := metricsOf(rs, func(r *Result) []float64 {
					dip, rec := recoveryMetrics(r, faultAt)
					return []float64{
						r.FgP(0.99), r.TimeoutsPer1k(),
						float64(r.Aborted), float64(r.Incomplete),
						dip, rec.Seconds(),
						float64(r.Ctr.WatchdogFires),
						float64(r.Faults.PFCDeadlockCycles + r.Faults.PFCStormSuspects),
					}
				})
				rep.AddRow(label, v.Name(),
					meanStdDur(col(ms, 0)),
					fmt.Sprintf("%.1f", stats.Mean(col(ms, 1))),
					fmt.Sprintf("%.0f", stats.Mean(col(ms, 2))),
					fmt.Sprintf("%.0f", stats.Mean(col(ms, 3))),
					fmt.Sprintf("%.2f", stats.Mean(col(ms, 4))),
					meanStdDur(col(ms, 5)),
					fmt.Sprintf("%.0f", stats.Mean(col(ms, 6))),
					fmt.Sprintf("%.0f", stats.Mean(col(ms, 7))))
			})
		}
	}
	sw.exec()
	rep.Note("goodput dip is the worst post-fault completion-rate bin over the pre-fault mean; " +
		"recovery is the time from fault injection until goodput regains 90%% of that mean")
	rep.Note("aborted flows hit the retry cap against a black-holed path; they are terminal " +
		"but never counted as completed (incomplete counts flows still spinning at the horizon)")
	return rep
}

// recoveryBin is the goodput histogram granularity for the recovery
// metrics.
const recoveryBin = 100 * sim.Microsecond

// recoveryMetrics derives (goodput dip fraction, time-to-recovery) from
// one run's completion records. Completed-flow bytes are binned by
// completion time; the pre-fault bins establish baseline goodput, the
// dip is the worst post-fault bin relative to it, and recovery is how
// long after the fault goodput first regains 90% of the baseline.
func recoveryMetrics(r *Result, faultAt sim.Time) (dip float64, recovery sim.Time) {
	if r.Rec == nil || r.Elapsed <= faultAt {
		return math.NaN(), 0
	}
	nbins := int(r.Elapsed/recoveryBin) + 1
	bins := make([]float64, nbins)
	for _, fr := range r.Rec.Flows {
		if !fr.Done {
			continue
		}
		b := int(fr.End / recoveryBin)
		if b >= 0 && b < nbins {
			bins[b] += float64(fr.Flow.Size)
		}
	}
	faultBin := int(faultAt / recoveryBin)
	if faultBin <= 0 || faultBin >= nbins {
		return math.NaN(), 0
	}
	var pre float64
	for _, b := range bins[:faultBin] {
		pre += b
	}
	pre /= float64(faultBin)
	if pre <= 0 {
		return math.NaN(), 0
	}
	// Scan the tail window after the fault: the paper's recovery story is
	// over within a few ms, so cap the window to keep the metric about
	// the fault, not end-of-run drain.
	endBin := faultBin + int(4*sim.Millisecond/recoveryBin)
	if endBin > nbins {
		endBin = nbins
	}
	worst := math.Inf(1)
	recovery = r.Elapsed - faultAt // pessimistic: never recovered
	recovered := false
	for b := faultBin; b < endBin; b++ {
		frac := bins[b] / pre
		if frac < worst {
			worst = frac
		}
		if !recovered && frac >= 0.9 {
			recovery = sim.Time(b)*recoveryBin - faultAt
			if recovery < 0 {
				recovery = 0
			}
			recovered = true
		}
	}
	if math.IsInf(worst, 1) {
		return math.NaN(), 0
	}
	return worst, recovery
}
