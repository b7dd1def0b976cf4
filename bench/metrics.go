package main

import (
	"math"
	"sort"
)

// metricDef names one benchmark metric. The end-to-end and per-layer
// tables below are the single source of the names, units and directions;
// bench_test.go checks BENCHMARK.json against them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Floor  float64 // end-to-end only: two medians closer than this, in the metric's unit, do not differ
	Source string  // per-layer only: C count, P probe, S span, L derived
}

// endToEnd lists the host-time metrics a user of the simulator feels.
// Every value is the median over a run's timed passes. The host-time
// bounds are the widest the contract allows because this host's speed
// drifts by 10-15% over minutes (README.md, "Protocol and host noise");
// alloc_mb repeats to five digits and keeps a tight one. setup_s is a few
// milliseconds on fattree-churn, where the timer's own scatter is a large
// share, hence its floor.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mpkts_per_s", Unit: "Mpkt/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02},
}

// perLayer lists the layer metrics in the order they print. Counts (C)
// repeat exactly for a fixed seed and must not move under a speed-only
// change; probes (P) and spans (S) are host time. fail_share leads them
// because it is 0 on a healthy run, which the contract's end-to-end
// metrics may never be; the result line's attempted and failed carry it.
var perLayer = []metricDef{
	{Name: "fail_share", Unit: "share", Better: "lower", Source: "C"},

	{Name: "sim.events", Unit: "count", Better: "lower", Source: "C"},
	{Name: "sim.events_per_pkt", Unit: "ratio", Better: "lower", Source: "C"},
	{Name: "sim.cascades_per_event", Unit: "ratio", Better: "lower", Source: "C"},
	{Name: "sim.dead_reclaimed_per_kflow", Unit: "1/kflow", Better: "lower", Source: "C"},
	{Name: "sim.heap_max", Unit: "count", Better: "lower", Source: "C"},
	{Name: "sim.mevents_per_s", Unit: "Mev/s", Better: "higher", Source: "L"},
	{Name: "sim.postpop_near_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "sim.postpop_link_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "sim.timer_rearm_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "sim.pdes_send_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "sim.shards2_wall_ratio", Unit: "ratio", Better: "lower", Source: "S"},

	{Name: "fabric.pkts", Unit: "count", Better: "lower", Source: "C"},
	{Name: "fabric.drop_share", Unit: "share", Better: "lower", Source: "C"},
	{Name: "fabric.ecn_mark_share", Unit: "share", Better: "lower", Source: "C"},
	{Name: "fabric.pause_frames", Unit: "count", Better: "lower", Source: "C"},
	{Name: "fabric.hop_ns_mtu", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "fabric.hop_ns_ack", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "fabric.hop_ns_pfc", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "fabric.demux_dense_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "fabric.demux_map_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "fabric.register_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "mmu.hop_ns_bshare", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "mmu.hop_ns_bfc", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "packet.pool_getput_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "transport.flows", Unit: "count", Better: "higher", Source: "C"},
	{Name: "transport.timeouts_per_kflow", Unit: "1/kflow", Better: "lower", Source: "C"},
	{Name: "transport.retx_share", Unit: "share", Better: "lower", Source: "C"},
	{Name: "transport.incomplete", Unit: "count", Better: "lower", Source: "C"},
	{Name: "transport.pktboard_ack_ns_w64", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "transport.pktboard_ack_ns_w1024", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "transport.rangeset_add_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "tcp.pkt_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "dcqcn.pkt_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "hpcc.pkt_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "tcp.flow_ns_8k", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "tcp.allocs_per_flow", Unit: "count", Better: "lower", Source: "C"},

	{Name: "core.important_share", Unit: "share", Better: "lower", Source: "C"},
	{Name: "core.tlt_timeout_cut", Unit: "share", Better: "higher", Source: "C"},
	{Name: "core.tlt_fg_p999_cut", Unit: "share", Better: "higher", Source: "C"},

	{Name: "topo.leafspine_build_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "topo.fattree_k8_build_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "topo.fattree_k16_build_ms", Unit: "ms", Better: "lower", Source: "S"},

	{Name: "workload.generate_ns_per_flow", Unit: "ns", Better: "lower", Source: "S"},
	{Name: "workload.poisson_next_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "app.service_next_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "stats.recorder_flow_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "stats.fold_ms_per_kflow", Unit: "ms", Better: "lower", Source: "P"},
	{Name: "stats.hist_record_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "stats.stream_fold_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "chaos.resolve_ms", Unit: "ms", Better: "lower", Source: "S"},

	{Name: "experiments.cells", Unit: "count", Better: "higher", Source: "C"},
	{Name: "experiments.cell_wall_ms_p50", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "experiments.cell_wall_ms_max", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "experiments.grid_overhead_share", Unit: "share", Better: "lower", Source: "S"},
	{Name: "experiments.render_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "experiments.par_efficiency", Unit: "share", Better: "higher", Source: "L"},

	{Name: "runtime.mallocs_per_flow", Unit: "count", Better: "lower", Source: "C"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Source: "C"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Source: "L"},

	{Name: "ledger.predicted_s", Unit: "s", Better: "higher", Source: "L"},
	{Name: "ledger.residual_share", Unit: "share", Better: "lower", Source: "L"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: "L"},
}

// summary is a timed quantity over a run's passes; Values keeps them in
// the order they ran.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize returns the median (mean of the middle two for even n), min
// and max of xs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Median: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s), Values: xs}
}

// worseBy returns by what share of base the value got worse in the
// metric's direction (negative when it improved).
func worseBy(m metricDef, base, val float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - val) / base
	}
	return (val - base) / base
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
