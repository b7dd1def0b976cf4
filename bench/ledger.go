package main

import (
	"fmt"
	"io"
	"math"
)

// The ledger prices a pass from the outside: probe ns per operation
// times the operation counts the program reports. Each probe's cost is
// taken net of the layers below it (a packet hop runs sim events, a
// transport packet runs hops), so the rows add up instead of
// overlapping. What the rows do not explain is the residual, which is
// always printed.

// ledgerIn is everything the ledger arithmetic needs.
type ledgerIn struct {
	Events, Packets, DataPkts, Flows float64 // counted operations of one pass
	SetupS                           float64 // measured set-up seconds per pass
	MeasuredS                        float64 // seconds per pass the prediction is held against

	PostpopNs float64     // sim.postpop_link_ns
	Hop       probeResult // fabric hop probe (ns per packet, events and enqueues per packet)
	Pkt       probeResult // transport probe (per data packet)
	Flow      probeResult // 8 kB flow probe (per flow)
}

type ledgerRow struct {
	Layer   string  `json:"layer"`
	Op      string  `json:"op"`
	NsPerOp float64 `json:"ns_per_op"`
	Ops     float64 `json:"ops"`
	Seconds float64 `json:"seconds"`
}

type ledgerOut struct {
	Rows          []ledgerRow `json:"rows"`
	PredictedS    float64     `json:"predicted_s"`
	MeasuredS     float64     `json:"measured_s"`
	ResidualShare float64     `json:"residual_share"`
}

func computeLedger(in ledgerIn) ledgerOut {
	pos := func(x float64) float64 { return math.Max(0, x) }
	simNs := in.PostpopNs
	fabricNs := ratio(pos(in.Hop.NsPerOp-in.Hop.EventsPerOp*simNs), in.Hop.EnqPerOp)
	below := func(p probeResult) float64 { return p.EventsPerOp*simNs + p.EnqPerOp*fabricNs }
	transportNs := pos(in.Pkt.NsPerOp - below(in.Pkt))
	flowNs := pos(in.Flow.NsPerOp - below(in.Flow) - in.Flow.DataPerOp*transportNs)

	out := ledgerOut{MeasuredS: in.MeasuredS}
	add := func(layer, op string, ns, ops float64) {
		row := ledgerRow{Layer: layer, Op: op, NsPerOp: ns, Ops: ops, Seconds: ns * ops / 1e9}
		out.Rows = append(out.Rows, row)
		out.PredictedS += row.Seconds
	}
	add("sim", "event", simNs, in.Events)
	add("fabric", "switch enqueue", fabricNs, in.Packets)
	add("transport", "data packet", transportNs, in.DataPkts)
	add("transport/tcp", "flow set-up+tear-down", flowNs, in.Flows)
	add("experiments", "set-up (measured)", in.SetupS*1e9, 1)
	out.ResidualShare = ratio(in.MeasuredS-out.PredictedS, in.MeasuredS)
	return out
}

func (l ledgerOut) print(w io.Writer) {
	fmt.Fprintf(w, "  ledger: probe ns/op (net of lower layers) x counted ops\n")
	fmt.Fprintf(w, "  %-14s %-24s %12s %14s %10s\n", "layer", "op", "ns/op", "ops", "seconds")
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-14s %-24s %12.1f %14.0f %10.4f\n", r.Layer, r.Op, r.NsPerOp, r.Ops, r.Seconds)
	}
	fmt.Fprintf(w, "  %-14s %-24s %12s %14s %10.4f\n", "predicted", "", "", "", l.PredictedS)
	fmt.Fprintf(w, "  %-14s %-24s %12s %14s %10.4f\n", "measured", "", "", "", l.MeasuredS)
	fmt.Fprintf(w, "  %-14s %-24s %12s %14s %10.4f (share of measured: %.3f)\n", "residual", "", "", "",
		l.MeasuredS-l.PredictedS, l.ResidualShare)
}
