// Package experiments contains one generator per table and figure of the
// paper's evaluation (§2, §7, Appendix B). Each lays out its grid of
// cells (a topology and a source each), runs them through Run across
// seeds, and folds a Report with the same rows/series the paper plots.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tlt/internal/sim"
)

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Grid accounting filled in by the executor, for the benchmark
	// (bench/); not part of the rendered report.
	cells  int
	events uint64
	sched  sim.SchedStats
	// setupWall sums each cell's pre-run construction wall-clock;
	// packets sums switch enqueues, the denominator of events-per-packet.
	setupWall time.Duration
	packets   uint64
}

// GridStats returns how many grid cells produced this report and the
// total simulation events they processed.
func (r *Report) GridStats() (cells int, events uint64) {
	return r.cells, r.events
}

// SchedStats returns the aggregated scheduler-internal counters of every
// grid cell behind this report (dead-timer pops/reclamations, cascades,
// overflow-heap pressure).
func (r *Report) SchedStats() sim.SchedStats { return r.sched }

// SetupWall returns the total wall-clock the grid's cells spent in
// topology/flow construction before their event loops started.
func (r *Report) SetupWall() time.Duration { return r.setupWall }

// Packets returns the total switch enqueues (green + red) across the
// grid — the denominator for an events-per-packet cost figure.
func (r *Report) Packets() uint64 { return r.packets }

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Note appends a free-form footnote.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned plain-text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale controls experiment size. The paper's full scale (10k background
// flows, 5 seeds) is expensive; Quick preserves the shape at a fraction
// of the cost.
type Scale struct {
	BgFlows int
	Seeds   int
	// AppPoints trims sweep axes (request counts, fan-outs) for the
	// application/microbenchmark figures; 0 means full axis.
	AppPoints int
}

// QuickScale is the default for cmd/tltsim.
func QuickScale() Scale { return Scale{BgFlows: 400, Seeds: 2} }

// FullScale matches the paper's configuration.
func FullScale() Scale { return Scale{BgFlows: 10000, Seeds: 5} }
