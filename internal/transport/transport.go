package transport

import (
	"fmt"
	"strings"

	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// RTOConfig selects how a transport computes its retransmission timeout.
type RTOConfig struct {
	// Min clamps the estimated RTO from below (Linux RTOmin; the paper
	// evaluates 4 ms and 200 µs).
	Min sim.Time
	// Max clamps from above.
	Max sim.Time
	// Fixed, if non-zero, bypasses estimation entirely (the paper's
	// "aggressive static timeout" experiment, Fig. 2) and for RoCE
	// transports that use a static RTO.
	Fixed sim.Time
	// Granularity models timer resolution added to the variance term
	// (Linux uses 4*rttvar but at least one tick).
	Granularity sim.Time

	// MaxRetries caps consecutive timeout-driven retransmission rounds
	// without forward progress; when reached the sender aborts the flow
	// (IB QP retry-count semantics; TCP's net.ipv4.tcp_retries2). Zero
	// means retry forever — the seed behavior.
	MaxRetries int

	// MaxBackoffShift caps the exponential RTO backoff applied under
	// Karn's rule (effective timeout = RTO << min(consecutive-timeouts,
	// shift)). Zero keeps each transport's default: TCP backs off with
	// its traditional cap of 12, the static-timer RoCE transports
	// (DCQCN, HPCC) do not back off at all, matching IB verbs.
	MaxBackoffShift uint
}

// DefaultRTO returns the Linux-like defaults the paper's baseline uses.
func DefaultRTO() RTOConfig {
	return RTOConfig{
		Min:         4 * sim.Millisecond,
		Max:         60 * sim.Second,
		Granularity: 10 * sim.Microsecond, // VMA high-resolution timer (§6)
	}
}

// RTOEstimator implements the standard SRTT/RTTVAR smoothing (RFC 6298 /
// Linux): srtt = 7/8 srtt + 1/8 r, rttvar = 3/4 rttvar + 1/4 |srtt - r|,
// RTO = srtt + max(4*rttvar, granularity), clamped to [Min, Max].
type RTOEstimator struct {
	cfg    RTOConfig
	srtt   sim.Time
	rttvar sim.Time
	seeded bool
}

// NewRTOEstimator returns an estimator with the given configuration.
func NewRTOEstimator(cfg RTOConfig) *RTOEstimator {
	if cfg.Max == 0 {
		cfg.Max = 60 * sim.Second
	}
	return &RTOEstimator{cfg: cfg}
}

// Sample folds a new RTT measurement into the estimate.
func (e *RTOEstimator) Sample(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if !e.seeded {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.seeded = true
		return
	}
	e.rttvar = (3*e.rttvar + max(e.srtt-rtt, rtt-e.srtt)) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// SRTT returns the smoothed RTT (zero until the first sample).
func (e *RTOEstimator) SRTT() sim.Time { return e.srtt }

// RTO returns the current timeout value.
func (e *RTOEstimator) RTO() sim.Time {
	if e.cfg.Fixed > 0 {
		return e.cfg.Fixed
	}
	return min(max(e.srtt+max(4*e.rttvar, e.cfg.Granularity), e.cfg.Min), e.cfg.Max)
}

// Flow describes one transfer.
type Flow = stats.Flow

// MSS is the modeled maximum segment payload in bytes, matching the
// paper's ns-3 setup (1 kB payload packets).
const MSS = 1000

// FlowStatus is a point-in-time snapshot of one sender's recovery state,
// rendered in stall reports when an experiment's horizon expires with
// incomplete flows. Every field is diagnostic; none feed back into the
// protocol.
type FlowStatus struct {
	Flow      packet.FlowID
	Transport string // "tcp", "dcqcn", "hpcc"
	State     string // transport-specific state summary

	Done             bool
	Aborted          bool // sender gave up: max retries exhausted
	AckedBytes       int64
	TotalBytes       int64
	OutstandingBytes int64 // sent and unacknowledged
	LostBytes        int64 // marked lost, awaiting retransmission

	// ImportantInFlight reports whether a TLT important packet is
	// outstanding — a stalled flow with one in flight is waiting on an
	// echo that will never come (the degradation mode chaos induces).
	ImportantInFlight bool

	RTOArmed    bool
	RTODeadline sim.Time
	Timers      []string // pending timer descriptions beyond the RTO
}

// StatusReporter is implemented by transport senders so the experiment
// runner's stall watchdog can interrogate incomplete flows.
type StatusReporter interface {
	FlowStatus() FlowStatus
}

// String renders the snapshot as one report line.
func (fs FlowStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %d [%s] state=%s acked=%d/%d outstanding=%d lost=%d",
		fs.Flow, fs.Transport, fs.State,
		fs.AckedBytes, fs.TotalBytes, fs.OutstandingBytes, fs.LostBytes)
	if fs.Aborted {
		b.WriteString(" aborted")
	}
	if fs.ImportantInFlight {
		b.WriteString(" important-in-flight")
	}
	if fs.RTOArmed {
		fmt.Fprintf(&b, " rto@%v", fs.RTODeadline)
	} else {
		b.WriteString(" rto=disarmed")
	}
	for _, t := range fs.Timers {
		b.WriteString(" ")
		b.WriteString(t)
	}
	return b.String()
}
