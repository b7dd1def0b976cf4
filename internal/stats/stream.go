package stats

import (
	"tlt/internal/sim"
)

// Epochs is a bounded time-series rollup: fixed-width bins of flow
// issues, completions, and completed bytes. Bins are integer counters
// indexed by event time, so per-shard instances merge element-wise and
// the result is independent of how flows were partitioned across
// shards. Memory is O(horizon/width), never O(flows).
type Epochs struct {
	Width  sim.Time
	Issued []int64
	Done   []int64
	Bytes  []int64
}

// NewEpochs returns an empty rollup with the given bin width.
func NewEpochs(width sim.Time) *Epochs {
	if width <= 0 {
		width = sim.Millisecond
	}
	return &Epochs{Width: width}
}

func (e *Epochs) bin(t sim.Time) int {
	if t < 0 {
		t = 0
	}
	idx := int(t / e.Width)
	for len(e.Issued) <= idx {
		e.Issued = append(e.Issued, 0)
		e.Done = append(e.Done, 0)
		e.Bytes = append(e.Bytes, 0)
	}
	return idx
}

// AddIssued counts one flow issued at time t.
func (e *Epochs) AddIssued(t sim.Time) { e.Issued[e.bin(t)]++ }

// AddDone counts one flow completed at time t delivering size bytes.
func (e *Epochs) AddDone(t sim.Time, size int64) {
	idx := e.bin(t)
	e.Done[idx]++
	e.Bytes[idx] += size
}

// Merge folds o into e element-wise. Widths must match.
func (e *Epochs) Merge(o *Epochs) {
	if o == nil {
		return
	}
	for len(e.Issued) < len(o.Issued) {
		e.Issued = append(e.Issued, 0)
		e.Done = append(e.Done, 0)
		e.Bytes = append(e.Bytes, 0)
	}
	for i := range o.Issued {
		e.Issued[i] += o.Issued[i]
		e.Done[i] += o.Done[i]
		e.Bytes[i] += o.Bytes[i]
	}
}

// PeakLive returns the maximum number of simultaneously open flows
// observed at epoch granularity: the max over bin boundaries of
// cumulative issues minus cumulative completions. Because it is
// computed from the merged series it is shard-count invariant (unlike
// per-shard live peaks, which depend on the partition).
func (e *Epochs) PeakLive() int64 {
	var live, peak int64
	for i := range e.Issued {
		live += e.Issued[i] - e.Done[i]
		if live > peak {
			peak = live
		}
	}
	return peak
}

// ClassStream aggregates one traffic class (foreground or background)
// of a streaming run: a bounded FCT histogram plus the same counter
// families FlowRecord tracks, folded in as flows retire instead of
// being kept per-flow.
type ClassStream struct {
	FCT *Hist // completed-flow FCTs, nanoseconds

	Issued    int64
	Done      int64
	Aborted   int64
	DoneBytes int64 // bytes of completed flows

	Timeouts    int64
	RTOLowFires int64
	FastRecov   int64
	RetxPackets int64
	SentPackets int64
	ImpPackets  int64
	ImpBytes    int64
	TotalBytes  int64
	ClockBytes  int64
	ClockSends  int64
}

// FoldSender accumulates the sender-owned counters of a retiring flow.
// Call exactly once per flow, on the shard that owns the sender.
func (cs *ClassStream) FoldSender(fr *FlowRecord) {
	cs.Timeouts += int64(fr.Timeouts)
	cs.RTOLowFires += int64(fr.RTOLowFires)
	cs.FastRecov += int64(fr.FastRecov)
	cs.RetxPackets += int64(fr.RetxPackets)
	cs.SentPackets += int64(fr.SentPackets)
	cs.ImpPackets += int64(fr.ImpPackets)
	cs.ImpBytes += fr.ImpBytes
	cs.TotalBytes += fr.TotalBytes
	cs.ClockBytes += fr.ClockBytes
	cs.ClockSends += int64(fr.ClockSends)
}

// FoldDone records a completion observed on the receiver shard.
func (cs *ClassStream) FoldDone(fct sim.Time, size int64) {
	cs.Done++
	cs.DoneBytes += size
	cs.FCT.Record(int64(fct))
}

// Stream is one shard's bounded-memory aggregate of a streaming run:
// two traffic classes, a queue-depth histogram, and epoch rollups.
// Per-shard Streams merge element-wise after the run joins; every field
// is integer-derived, so the merged result is identical at any shard
// count.
type Stream struct {
	FG, BG ClassStream
	Queue  *Hist // queue-depth samples, bytes
	Epochs *Epochs
}

// NewStream returns an empty stream aggregate with the given epoch width.
func NewStream(epochWidth sim.Time) *Stream {
	return &Stream{
		FG:     ClassStream{FCT: NewHist()},
		BG:     ClassStream{FCT: NewHist()},
		Queue:  NewHist(),
		Epochs: NewEpochs(epochWidth),
	}
}

// Class returns the aggregate for the given traffic class.
func (st *Stream) Class(fg bool) *ClassStream {
	if fg {
		return &st.FG
	}
	return &st.BG
}

// Merge folds o into st.
func (st *Stream) Merge(o *Stream) {
	if o == nil {
		return
	}
	mergeClass(&st.FG, &o.FG)
	mergeClass(&st.BG, &o.BG)
	st.Queue.Merge(o.Queue)
	st.Epochs.Merge(o.Epochs)
}

func mergeClass(dst, src *ClassStream) {
	dst.FCT.Merge(src.FCT)
	dst.Issued += src.Issued
	dst.Done += src.Done
	dst.Aborted += src.Aborted
	dst.DoneBytes += src.DoneBytes
	dst.Timeouts += src.Timeouts
	dst.RTOLowFires += src.RTOLowFires
	dst.FastRecov += src.FastRecov
	dst.RetxPackets += src.RetxPackets
	dst.SentPackets += src.SentPackets
	dst.ImpPackets += src.ImpPackets
	dst.ImpBytes += src.ImpBytes
	dst.TotalBytes += src.TotalBytes
	dst.ClockBytes += src.ClockBytes
	dst.ClockSends += src.ClockSends
}
