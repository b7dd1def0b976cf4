package experiments

import (
	"fmt"

	"tlt/internal/stats"
)

// AblationPeriodN probes the footnote of §5.2: rate-based TLT marks an
// important packet every N data packets as an aid for timely loss
// detection on long messages; the paper reports tail FCT differs by less
// than 3% between N=96 and N=384.
func AblationPeriodN(scale Scale) *Report {
	rep := &Report{
		ID:     "ablation-n",
		Title:  "Rate-based periodic marking interval N (DCQCN+SACK+TLT)",
		Header: []string{"N", "fg p99.9 FCT", "fg p99 FCT", "bg avg FCT", "imp frac", "timeouts/1k"},
	}
	ns := []int{48, 96, 192, 384}
	if scale.AppPoints > 0 && scale.AppPoints < len(ns) {
		ns = ns[:scale.AppPoints]
	}
	sw := newSweep(rep)
	for _, n := range ns {
		v := Variant{Transport: "dcqcn-sack", TLT: true, PeriodN: n}
		sw.add(RunConfig{Variant: v, Traffic: trafficFor(scale, 0.4, 0.05)}, scale.Seeds,
			func(rs []*Result) {
				ms := metricsOf(rs, func(r *Result) []float64 {
					return []float64{r.FgP(0.999), r.FgP(0.99), r.BgMean(),
						r.Rec.ImportantFraction(), r.TimeoutsPer1k()}
				})
				rep.AddRow(fmt.Sprintf("%d", n),
					meanStdDur(col(ms, 0)), meanStdDur(col(ms, 1)), meanStdDur(col(ms, 2)),
					fmt.Sprintf("%.2f%%", stats.Mean(col(ms, 3))*100),
					fmt.Sprintf("%.1f", stats.Mean(col(ms, 4))))
			})
	}
	sw.exec()
	rep.Note("paper §5.2 footnote: tail FCT differs <3%% between N=96 and N=384")
	return rep
}

// AblationAlpha probes §4.2's buffer-model parameter: the dynamic
// threshold alpha trades buffer utilization (large alpha) against
// short-term fairness between ports (small alpha). The paper uses
// alpha=1 to balance.
func AblationAlpha(scale Scale) *Report {
	rep := &Report{
		ID:     "ablation-alpha",
		Title:  "Dynamic-threshold alpha (DCTCP+TLT, no PFC)",
		Header: []string{"alpha", "fg p99.9 FCT", "bg avg FCT", "imp loss rate", "max queue"},
	}
	// Small alphas cap queues *below* the color threshold, breaking the
	// headroom reservation TLT depends on — the interesting regime.
	alphas := []float64{0.05, 0.1, 0.25, 1, 4}
	if scale.AppPoints > 0 && scale.AppPoints < len(alphas) {
		alphas = alphas[:scale.AppPoints]
	}
	sw := newSweep(rep)
	for _, a := range alphas {
		v := Variant{Transport: "dctcp", TLT: true}
		rc := RunConfig{Variant: v, Traffic: trafficFor(scale, 0.4, 0.05), Topology: leafSpine{alpha: a}}
		sw.add(rc, scale.Seeds, func(rs []*Result) {
			var maxQ float64
			ms := metricsOf(rs, func(r *Result) []float64 {
				if q := float64(r.MaxQ); q > maxQ {
					maxQ = q
				}
				return []float64{r.FgP(0.999), r.BgMean(), r.ImpLossRate()}
			})
			rep.AddRow(fmt.Sprintf("%.2f", a),
				meanStdDur(col(ms, 0)), meanStdDur(col(ms, 1)),
				fmt.Sprintf("%.2e", stats.Mean(col(ms, 2))),
				fmt.Sprintf("%.0fkB", maxQ/1000))
		})
	}
	sw.exec()
	rep.Note("paper §4.2: alpha=1 balances buffer utilization against per-port fairness")
	return rep
}

// AblationBuffer compares the pluggable MMU strategies (§4.2's buffer
// model and its competitors) across shared-buffer sizes: the built-in
// Choudhury–Hahne + color default, queueing-delay-driven BShare, the
// tiny-buffer regime (effective buffer 10× smaller than physical), and
// C–H paired with per-hop backpressure flow control (BFC) instead of
// drops. Shrinking the buffer stresses the same protection guarantee
// the alpha ablation does from the parameter side: TLT must keep green
// losses near zero even when the headroom the color threshold reserves
// is a large fraction of the whole pool.
func AblationBuffer(scale Scale) *Report {
	rep := &Report{
		ID:     "ablation-buffer",
		Title:  "Buffer policy × shared-buffer size (DCTCP+TLT)",
		Header: []string{"policy", "buffer", "fg p99.9 FCT", "bg avg FCT", "imp loss rate", "timeouts/1k", "max queue"},
	}
	bufs := []int64{4_500_000, 1_500_000, 450_000}
	if scale.AppPoints > 0 && scale.AppPoints < len(bufs) {
		bufs = bufs[:scale.AppPoints]
	}
	pols := []struct{ label, mmu, fc string }{
		{"ch", "", ""},
		{"bshare", "bshare", ""},
		{"tiny", "tiny", ""},
		{"ch+bfc", "", "bfc"},
	}
	sw := newSweep(rep)
	for _, p := range pols {
		for _, b := range bufs {
			p, b := p, b
			v := Variant{Transport: "dctcp", TLT: true, MMU: p.mmu, FC: p.fc}
			rc := RunConfig{Variant: v, Traffic: trafficFor(scale, 0.4, 0.05), Topology: leafSpine{buffer: b}}
			sw.add(rc, scale.Seeds, func(rs []*Result) {
				var maxQ float64
				ms := metricsOf(rs, func(r *Result) []float64 {
					if q := float64(r.MaxQ); q > maxQ {
						maxQ = q
					}
					return []float64{r.FgP(0.999), r.BgMean(), r.ImpLossRate(), r.TimeoutsPer1k()}
				})
				rep.AddRow(p.label, fmt.Sprintf("%dkB", b/1000),
					meanStdDur(col(ms, 0)), meanStdDur(col(ms, 1)),
					fmt.Sprintf("%.2e", stats.Mean(col(ms, 2))),
					fmt.Sprintf("%.1f", stats.Mean(col(ms, 3))),
					fmt.Sprintf("%.0fkB", maxQ/1000))
			})
		}
	}
	sw.exec()
	rep.Note("tiny: admission capacity is buffer/10 (SwitchConfig.MMUDiv); bfc pauses only the ingress ports feeding the hot queue")
	return rep
}
