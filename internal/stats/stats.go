// Package stats collects per-flow and network-wide measurements and
// computes the aggregates the paper reports: FCT percentiles, timeout
// counts, pause statistics, delivery-time CDFs and loss rates.
package stats

import (
	"fmt"
	"math"
	"sort"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// Flow describes one transfer: what a FlowRecord is kept for. The
// transports name it transport.Flow; it is declared down here because the
// shared RoCE queue pair in package transport books into FlowRecords, so
// transport imports stats and not the other way round.
type Flow struct {
	ID       packet.FlowID
	Src, Dst packet.NodeID
	Size     int64    // bytes (TCP family) — RoCE transports derive packets
	Start    sim.Time // arrival time
	FG       bool     // foreground (latency-sensitive incast) vs background
}

// FlowRecord tracks one flow's lifetime statistics. Transports mutate the
// exported counters directly while the flow runs.
//
// In a sharded run a flow's sender and receiver may live on different
// shards, so the record's fields are split by owner: End/Done and the
// Rx* counters belong to the receiver, everything else to the sender.
// Neither side reads or writes the other's fields mid-run; aggregates
// that need both (ImportantFraction) sum them after the run joins.
type FlowRecord struct {
	Flow *Flow
	// End / Done are stamped by the receiver at completion.
	End  sim.Time
	Done bool
	// Aborted marks a flow its sender gave up on (max retries exhausted
	// against a black hole), with the abort instant in AbortEnd. Done
	// stays false unless the completion was already in flight, so
	// aborted flows never contaminate FCT statistics.
	Aborted  bool
	AbortEnd sim.Time

	Timeouts    int // RTO expirations
	RTOLowFires int // IRN RTO_low expirations (cheap designed recovery, not counted as timeouts)
	FastRecov   int // fast-recovery episodes
	RetxPackets int // retransmitted data packets
	SentPackets int // data packets sent (including retx)
	ImpPackets  int // packets sent marked important (green), incl. control
	ImpBytes    int64
	TotalBytes  int64 // wire bytes sent
	ClockBytes  int64 // bytes injected by important ACK-clocking
	ClockSends  int   // important ACK-clocking transmissions

	// Receiver-owned mirrors of the wire-byte counters, for transports
	// whose receiver sends autonomously (RoCE ACK/CNP generation).
	RxImpPackets int
	RxImpBytes   int64
	RxTotalBytes int64
}

// FCT returns the flow completion time.
func (r *FlowRecord) FCT() sim.Time { return r.End - r.Flow.Start }

// Recorder aggregates all flow records of one simulation run.
type Recorder struct {
	Flows []*FlowRecord

	// arena is the current FlowRecord allocation chunk. Records are
	// handed out as pointers into it, so a chunk is never grown in
	// place (that would move live records): when full, a fresh chunk
	// replaces it and the old one stays alive through Flows. This turns
	// one allocation per flow into one per arenaChunk flows.
	arena []FlowRecord

	// DeliverySamples optionally collects per-segment delivery times
	// (first transmission to acknowledgment), for Fig. 16.
	DeliverySamples *Reservoir
	// RTTSamples / RTOSamples optionally collect per-ACK measured RTTs
	// and the resulting estimated RTO, for Fig. 1. Split by flow class.
	RTTSamplesFG, RTTSamplesBG *Reservoir
	RTOSamplesFG, RTOSamplesBG *Reservoir
}

// arenaChunk is the FlowRecord arena granularity.
const arenaChunk = 512

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reserve pre-sizes the recorder for n flows, so a run with a known flow
// count pays one Flows allocation and ⌈n/arenaChunk⌉ record chunks.
func (rec *Recorder) Reserve(n int) {
	if cap(rec.Flows)-len(rec.Flows) < n {
		flows := make([]*FlowRecord, len(rec.Flows), len(rec.Flows)+n)
		copy(flows, rec.Flows)
		rec.Flows = flows
	}
}

// NewFlowRecord registers a flow and returns its record. The record is
// pointer-stable for the recorder's lifetime.
func (rec *Recorder) NewFlowRecord(f *Flow) *FlowRecord {
	if len(rec.arena) == cap(rec.arena) {
		rec.arena = make([]FlowRecord, 0, arenaChunk)
	}
	rec.arena = append(rec.arena, FlowRecord{Flow: f})
	fr := &rec.arena[len(rec.arena)-1]
	rec.Flows = append(rec.Flows, fr)
	return fr
}

// FlowDone finalizes a record.
func (rec *Recorder) FlowDone(fr *FlowRecord, at sim.Time) {
	fr.End = at
	fr.Done = true
}

// FlowAborted finalizes a record for a sender that gave up (terminal,
// but never counted as completed). Only sender-owned fields move: a
// completion already in flight from the receiver may still land.
func (rec *Recorder) FlowAborted(fr *FlowRecord, at sim.Time) {
	fr.AbortEnd = at
	fr.Aborted = true
}

// AbortedCount returns how many flows ended in a terminal abort — the
// sender gave up and no completion ever arrived.
func (rec *Recorder) AbortedCount() int {
	n := 0
	for _, fr := range rec.Flows {
		if fr.Aborted && !fr.Done {
			n++
		}
	}
	return n
}

// Select returns the completed-flow FCTs in seconds matching the filter.
func (rec *Recorder) Select(fg bool) []float64 {
	var out []float64
	for _, fr := range rec.Flows {
		if fr.Done && fr.Flow.FG == fg {
			out = append(out, fr.FCT().Seconds())
		}
	}
	return out
}

// CompletedCount returns (completed, total) flows for a class.
func (rec *Recorder) CompletedCount(fg bool) (done, total int) {
	for _, fr := range rec.Flows {
		if fr.Flow.FG != fg {
			continue
		}
		total++
		if fr.Done {
			done++
		}
	}
	return
}

// Timeouts returns total RTO expirations across flows in a class.
func (rec *Recorder) Timeouts(fg bool) int {
	n := 0
	for _, fr := range rec.Flows {
		if fr.Flow.FG == fg {
			n += fr.Timeouts
		}
	}
	return n
}

// TimeoutsAll returns total RTO expirations across all flows.
func (rec *Recorder) TimeoutsAll() int {
	return rec.Timeouts(true) + rec.Timeouts(false)
}

// FlowsWithTimeouts counts flows that experienced at least one timeout.
func (rec *Recorder) FlowsWithTimeouts() int {
	n := 0
	for _, fr := range rec.Flows {
		if fr.Timeouts > 0 {
			n++
		}
	}
	return n
}

// ImportantFraction returns the fraction of sent wire bytes carried by
// important (green) packets, across all flows (Fig. 10/11a).
func (rec *Recorder) ImportantFraction() float64 {
	var imp, tot int64
	for _, fr := range rec.Flows {
		imp += fr.ImpBytes + fr.RxImpBytes
		tot += fr.TotalBytes + fr.RxTotalBytes
	}
	if tot == 0 {
		return 0
	}
	return float64(imp) / float64(tot)
}

// Goodput returns aggregate application bytes delivered per second for a
// class over the measurement window.
func (rec *Recorder) Goodput(fg bool, elapsed sim.Time) float64 {
	var bytes int64
	for _, fr := range rec.Flows {
		if fr.Done && fr.Flow.FG == fg {
			bytes += fr.Flow.Size
		}
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds()
}

// Percentile returns the p-quantile (0..1) of xs using nearest-rank on a
// sorted copy. Returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// Sorted returns a sorted copy of xs, for feeding PercentileSorted when
// a caller wants several quantiles of the same data: one copy and one
// sort instead of one per quantile.
func Sorted(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// PercentileSorted is Percentile for already-sorted input; it neither
// copies nor sorts, so repeated quantile queries over the same data (the
// figure folds ask for p99.9, p99 and the mean of one run's FCTs) can
// sort once and share the slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CDF returns (value, cumulative fraction) points for plotting.
func CDF(xs []float64, points int) [][2]float64 {
	if len(xs) == 0 || points <= 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([][2]float64, 0, points)
	for i := 1; i <= points; i++ {
		frac := float64(i) / float64(points)
		idx := int(math.Ceil(frac*float64(len(sorted)))) - 1
		out = append(out, [2]float64{sorted[idx], frac})
	}
	return out
}

// FmtDur renders seconds with an adaptive unit for report rows.
func FmtDur(sec float64) string {
	switch {
	case math.IsNaN(sec):
		return "n/a"
	case sec >= 1:
		return fmt.Sprintf("%.3fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fus", sec*1e6)
	}
}
