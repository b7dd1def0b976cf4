package tcp

import (
	"fmt"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Typed event kinds: the RTO and TLP lazy-deadline ticks fire through
// static handlers on preallocated per-sender events, so re-arming a
// timer never allocates (the old method-value At path boxed a closure
// per arm). StartFlow's one-shot start rides the same mechanism.
var kindRTOTick, kindTLPTick, kindFlowStart sim.EventKind

func init() {
	kindRTOTick = sim.NewKind(func(_, arg any) { arg.(*Sender).rtoTick() })
	kindTLPTick = sim.NewKind(func(_, arg any) { arg.(*Sender).tlpTick() })
	kindFlowStart = sim.NewKind(func(_, arg any) {
		s := arg.(*Sender)
		s.Write(s.flow.Size)
		s.Close()
	})
}

// Sender is the sending endpoint of a TCP-family connection.
type Sender struct {
	s    *sim.Sim
	host *fabric.Host
	flow *transport.Flow
	cfg  Config

	rec      *stats.FlowRecord
	recorder *stats.Recorder
	onDone   func()

	// Board is the send scoreboard over the stream's bytes, one range per
	// segment: Una is the first unacknowledged byte, Nxt the next new one
	// and N how many the application has written so far.
	Board  transport.ByteBoard
	closed bool // application finished writing

	// Congestion control.
	cwnd          float64
	ssthresh      float64
	inRecovery    bool
	recoveryPoint int64

	// DCTCP.
	alpha        float64
	ceAcked      int64
	totAcked     int64
	nextAlphaSeq int64

	// Timers. Deadlines are lazy: re-arming only moves the deadline
	// field; the scheduled event re-checks and re-schedules itself,
	// which keeps the event heap small under per-ACK restarts.
	rtoEst      transport.RTOEstimator
	rtoDeadline sim.Time // 0 = disarmed
	rtoPending  bool
	rtoTimer    sim.Timer
	rtoEv       *sim.Event // tick event, created at first arm and kept across Reset
	backoff     uint
	retries     int // consecutive RTO rounds without forward progress

	tlpDeadline sim.Time
	tlpPending  bool
	tlpTimer    sim.Timer
	tlpEv       *sim.Event // tick event, created at first arm and kept across Reset
	tlpFired    bool       // one probe per episode

	tlt core.WindowSender

	done    bool
	aborted bool

	// OnAbort fires once when the sender gives up (RTO.MaxRetries
	// consecutive timeouts without progress). Set by the connection
	// wiring; may be nil.
	OnAbort func()
}

// NewSender constructs a sender on host for flow. It does not register
// with the host nor start transmitting; see NewConnection.
func NewSender(s *sim.Sim, host *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder, onDone func()) *Sender {
	snd := new(Sender)
	snd.Reset(host, flow, cfg, rec, recorder, onDone)
	return snd
}

// Reset initialises the sender for flow on host: every piece of state
// starts from zero or from the arguments, and only the tick events and
// the board's (emptied) backing array, or the list it comes from, carry
// over. It is the only place sender state is initialised, so a
// recycled sender cannot differ from a fresh one — whichever run, config
// or network it served before. Resetting a sender that is mid-flow, or
// whose tick events are still queued, is a caller bug and panics.
func (s *Sender) Reset(host *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder, onDone func()) {
	s.mustBeIdle()
	cfg.TLT.Flow = flow.ID
	s.Board.Reset(0, cfg.InitWindowSegs, cfg.TLT.Clock == core.ClockOneByte)
	if recorder != nil && recorder.DeliverySamples != nil {
		s.Board.SampleDeliveries(host.Sim(), recorder.DeliverySamples)
	}
	// The estimator and the TLT machine live in the sender by value; their
	// constructors inline, so the dereferences allocate nothing.
	*s = Sender{
		s: host.Sim(), host: host, flow: flow, cfg: cfg,
		rec: rec, recorder: recorder, onDone: onDone,
		Board:    s.Board,
		cwnd:     float64(cfg.InitWindowSegs * cfg.MSS),
		ssthresh: cfg.MaxCwndBytes,
		rtoEst:   *transport.NewRTOEstimator(cfg.RTO),
		rtoEv:    s.rtoEv,
		tlpEv:    s.tlpEv,
		tlt:      *core.NewWindowSender(cfg.TLT),
	}
}

func (s *Sender) mustBeIdle() {
	if s.Board.N > 0 && !s.done {
		panic(fmt.Sprintf("tcp: Reset of sender mid-flow (%d of %d bytes acked)", s.Board.Una, s.Board.N))
	}
	if (s.rtoEv != nil && s.rtoEv.Scheduled()) || (s.tlpEv != nil && s.tlpEv.Scheduled()) {
		panic("tcp: Reset of sender with a tick event still scheduled")
	}
}

// Clear zeroes a finished sender down to what Reset carries over, so a
// sender parked between runs pins nothing of the run it served — host,
// flow, record, recorder, callbacks. It panics where Reset would.
func (s *Sender) Clear() {
	s.mustBeIdle()
	s.Board.Reset(0, 0, false)
	*s = Sender{Board: s.Board, rtoEv: s.rtoEv, tlpEv: s.tlpEv}
}

// Write appends n bytes to the stream and kicks transmission.
func (s *Sender) Write(n int64) {
	s.Board.N += n
	if !s.done {
		s.output()
		s.armTimers()
	}
}

// Close marks the stream complete; the sender finishes when everything is
// acknowledged.
func (s *Sender) Close() { s.closed = true }

// Done reports sender-side completion (all written bytes acknowledged).
func (s *Sender) Done() bool { return s.done }

// Cwnd returns the congestion window in bytes (for tests).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Alpha returns the DCTCP alpha estimate (for tests).
func (s *Sender) Alpha() float64 { return s.alpha }

// SndUna returns the first unacknowledged byte (for tests).
func (s *Sender) SndUna() int64 { return s.Board.Una }

// TLTInFlightImportant reports whether an important packet is outstanding
// (for invariant tests).
func (s *Sender) TLTInFlightImportant() bool { return s.tlt.InFlight() }

// FlowStatus implements transport.StatusReporter for stall reports.
func (s *Sender) FlowStatus() transport.FlowStatus {
	state := "open"
	switch {
	case s.aborted:
		state = "aborted"
	case s.done:
		state = "done"
	case s.inRecovery:
		state = "recovery"
	case s.backoff > 0:
		state = "rto-backoff"
	case s.cwnd < s.ssthresh:
		state = "slow-start"
	}
	if s.backoff > 0 && !s.done {
		state += fmt.Sprintf("(backoff=%d)", s.backoff)
	}
	fs := transport.FlowStatus{
		Flow:              s.flow.ID,
		Transport:         "tcp",
		State:             state,
		Done:              s.done,
		Aborted:           s.aborted,
		AckedBytes:        s.Board.Una,
		TotalBytes:        s.Board.N,
		OutstandingBytes:  s.Board.Nxt - s.Board.Una,
		LostBytes:         s.Board.Lost(),
		ImportantInFlight: s.tlt.InFlight(),
		RTOArmed:          s.rtoDeadline > 0,
		RTODeadline:       s.rtoDeadline,
	}
	if s.tlpDeadline > 0 {
		fs.Timers = append(fs.Timers, fmt.Sprintf("tlp@%v", s.tlpDeadline))
	}
	return fs
}

// Start begins transmission (call at flow start time).
func (s *Sender) Start() {
	s.output()
	s.armTimers()
}

// Handle implements fabric.PacketHandler for the ACK path.
func (s *Sender) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Ack || s.done {
		return
	}
	s.onAck(pkt)
}

func (s *Sender) pipe() float64 { return float64(s.Board.InFlight()) }

func (s *Sender) outstanding() bool { return s.Board.Una < s.Board.Nxt }
func (s *Sender) unsent() bool      { return s.Board.Nxt < s.Board.N }

func (s *Sender) maybeEnterRecovery() {
	if s.inRecovery || s.Board.Lost() == 0 {
		return
	}
	s.inRecovery = true
	s.recoveryPoint = s.Board.Nxt
	s.rec.FastRecov++
	half := s.cwnd / 2
	if half < 2*float64(s.cfg.MSS) {
		half = 2 * float64(s.cfg.MSS)
	}
	s.ssthresh = half
	s.cwnd = half
}

func (s *Sender) onAck(pkt *packet.Packet) {
	now := s.s.Now()

	// RTT sampling (Karn: receivers echo timestamps only for
	// non-retransmitted packets).
	if pkt.EchoTS > 0 {
		rtt := now - pkt.EchoTS
		s.rtoEst.Sample(rtt)
		if s.recorder != nil {
			if s.flow.FG {
				if s.recorder.RTTSamplesFG != nil {
					s.recorder.RTTSamplesFG.Add(rtt.Seconds())
					s.recorder.RTOSamplesFG.Add(s.rtoEst.RTO().Seconds())
				}
			} else if s.recorder.RTTSamplesBG != nil {
				s.recorder.RTTSamplesBG.Add(rtt.Seconds())
				s.recorder.RTOSamplesBG.Add(s.rtoEst.RTO().Seconds())
			}
		}
	}

	// TLT echo pre-processing (Algorithm 1 ReceiveAck).
	una := s.Board.Una
	stale := false
	var impSentAt sim.Time
	rackOK := false
	if s.tlt.Enabled() {
		switch pkt.Mark {
		case packet.ImportantEcho:
			impSentAt, rackOK = s.tlt.OnEcho()
		case packet.ImportantClockEcho:
			stale = core.StaleClockEcho(pkt.Mark, pkt.Ack, una)
			impSentAt, rackOK = s.tlt.OnEcho()
		}
	}

	s.Board.Ack(pkt.Ack)
	newly := s.Board.Una - una
	s.Board.Sack(pkt.Sack())
	if rackOK {
		s.Board.RackMark(impSentAt)
	}
	s.maybeEnterRecovery()

	if !stale {
		s.ccOnAck(pkt, newly)
	}

	if s.inRecovery && s.Board.Una >= s.recoveryPoint {
		s.inRecovery = false
	}
	if newly > 0 {
		s.backoff = 0
		s.retries = 0 // Karn: forward progress resets the give-up counter
		s.tlpFired = false
	}

	if s.closed && s.Board.Complete() {
		s.complete()
		return
	}

	s.output()

	// Important ACK-clocking: the echo armed us, but the window (or the
	// send buffer) did not let output consume the mark. Inject an
	// important packet regardless of window to keep the clock alive.
	if s.tlt.Armed() && (s.outstanding() || s.unsent()) {
		s.importantClock()
	}

	s.armTimers()
}

func (s *Sender) ccOnAck(pkt *packet.Packet, newly int64) {
	if s.cfg.DCTCP {
		s.totAcked += newly
		if pkt.ECE {
			s.ceAcked += newly
		}
		if s.Board.Una >= s.nextAlphaSeq && s.totAcked > 0 {
			f := float64(s.ceAcked) / float64(s.totAcked)
			s.alpha = (1-s.cfg.DctcpG)*s.alpha + s.cfg.DctcpG*f
			if s.ceAcked > 0 && !s.inRecovery {
				s.cwnd = s.cwnd * (1 - s.alpha/2)
				if s.cwnd < float64(s.cfg.MSS) {
					s.cwnd = float64(s.cfg.MSS)
				}
				s.ssthresh = s.cwnd
			}
			s.ceAcked, s.totAcked = 0, 0
			s.nextAlphaSeq = s.Board.Nxt
		}
	}
	if s.inRecovery || newly <= 0 {
		return
	}
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(newly) // slow start
	} else {
		s.cwnd += float64(s.cfg.MSS) * float64(newly) / s.cwnd // CA
	}
	if s.cwnd > s.cfg.MaxCwndBytes {
		s.cwnd = s.cfg.MaxCwndBytes
	}
}

// output transmits retransmissions then new data while the window allows.
func (s *Sender) output() {
	if s.done {
		return
	}
	for {
		if s.pipe() >= s.cwnd {
			return
		}
		// TLT marks the burst's tail: the packet after which the window
		// has no room, or nothing is left to send.
		if seq := s.Board.NextRetx(); seq >= 0 {
			n := s.Board.End(seq) - seq
			more := s.pipe()+float64(n) < s.cwnd && (s.unsent() || s.Board.PendingRetx() > n)
			s.transmit(seq, 0, true, s.tlt.TakeMark(!more, s.s.Now()))
			continue
		}
		if !s.unsent() {
			return
		}
		seq := s.Board.Nxt
		n := min(s.Board.N-seq, int64(s.cfg.MSS))
		more := seq+n < s.Board.N && s.pipe()+float64(2*n) < s.cwnd
		s.transmit(seq, seq+n, false, s.tlt.TakeMark(!more, s.s.Now()))
	}
}

// transmit puts the range at seq on the wire — a new one, [seq, end), if
// seq is Board.Nxt — and returns its length.
func (s *Sender) transmit(seq, end int64, isRetx bool, mark packet.Mark) int64 {
	now := s.s.Now()
	end = s.Board.Send(seq, end, isRetx, now)
	if isRetx {
		s.rec.RetxPackets++
	}
	pkt := s.host.NewPacket()
	pkt.Flow, pkt.Dst = s.flow.ID, s.flow.Dst
	pkt.Type = packet.Data
	pkt.TC = s.cfg.TrafficClass
	pkt.Seq, pkt.Len = seq, int(end-seq)
	pkt.Mark = mark
	pkt.ECT = s.cfg.ECN
	if !isRetx {
		pkt.SentAt = now // Karn: no RTT sample from retransmissions
	}
	pkt.IsRetx = isRetx
	s.accountSend(pkt)
	s.host.Send(pkt)
	return end - seq
}

func (s *Sender) accountSend(pkt *packet.Packet) {
	s.rec.SentPackets++
	size := int64(pkt.WireSize())
	s.rec.TotalBytes += size
	if pkt.Important() {
		s.rec.ImpPackets++
		s.rec.ImpBytes += size
	}
}

// importantClock injects an important packet ignoring the window
// (Algorithm 1 importantAckClocking, with the adaptive payload of §5.1).
func (s *Sender) importantClock() {
	now := s.s.Now()
	mode := s.tlt.Mode()

	// Loss indicated and policy allows: retransmit a full MSS of the
	// first lost data to speed recovery.
	if seq := s.Board.NextRetx(); seq >= 0 && mode != core.ClockOneByte {
		s.rec.ClockSends++
		s.rec.ClockBytes += s.transmit(seq, 0, true, s.tlt.TakeClockMark(now))
		return
	}

	if mode == core.ClockFullMTU {
		// Redundantly retransmit the first unacked segment in full.
		if seq := s.Board.FirstUnsacked(); seq >= 0 {
			s.rec.ClockSends++
			s.rec.ClockBytes += s.transmit(seq, 0, true, s.tlt.TakeClockMark(now))
			return
		}
	}

	// Default: a 1-byte probe of the first unacked byte, minimizing
	// footprint while keeping the ACK clock alive.
	if !s.outstanding() && !s.unsent() {
		return
	}
	seq := s.Board.Una
	if seq >= s.Board.Nxt {
		// Nothing outstanding but data unsent (window collapsed to
		// zero is impossible with cwnd>=1 MSS, but guard anyway):
		// send 1 byte of new data.
		if !s.unsent() {
			return
		}
		s.rec.ClockSends++
		s.rec.ClockBytes++
		s.transmit(seq, seq+1, false, s.tlt.TakeClockMark(now))
		return
	}
	pkt := s.host.NewPacket()
	pkt.Flow, pkt.Dst = s.flow.ID, s.flow.Dst
	pkt.Type = packet.Data
	pkt.TC = s.cfg.TrafficClass
	pkt.Seq, pkt.Len = seq, 1
	pkt.Mark = s.tlt.TakeClockMark(now)
	pkt.ECT = s.cfg.ECN
	pkt.IsRetx = true
	s.rec.ClockSends++
	s.rec.ClockBytes++
	s.accountSend(pkt)
	s.host.Send(pkt)
}

func (s *Sender) armTimers() {
	s.armRTO()
	s.armTLP()
}

func (s *Sender) armRTO() {
	if s.done || !s.outstanding() {
		s.rtoDeadline = 0
		return
	}
	rto := s.rtoEst.RTO() << s.backoff
	s.rtoDeadline = s.s.Now() + rto
	if !s.rtoPending {
		s.rtoPending = true
		if s.rtoEv == nil {
			s.rtoEv = s.s.NewKindEvent(kindRTOTick, 0, s)
		}
		s.rtoTimer = s.s.Schedule(s.rtoEv, s.rtoDeadline)
	}
}

func (s *Sender) rtoTick() {
	s.rtoPending = false
	if s.done || s.rtoDeadline == 0 {
		return
	}
	if now := s.s.Now(); now < s.rtoDeadline {
		s.rtoPending = true
		s.rtoTimer = s.s.Schedule(s.rtoEv, s.rtoDeadline)
		return
	}
	s.onRTO()
}

func (s *Sender) armTLP() {
	if !s.cfg.TLP || s.tlt.Enabled() || s.done || !s.outstanding() || s.tlpFired {
		s.tlpDeadline = 0
		return
	}
	pto := 2 * s.rtoEst.SRTT()
	if pto < s.cfg.TLPMinPTO {
		pto = s.cfg.TLPMinPTO
	}
	s.tlpDeadline = s.s.Now() + pto
	if !s.tlpPending {
		s.tlpPending = true
		if s.tlpEv == nil {
			s.tlpEv = s.s.NewKindEvent(kindTLPTick, 0, s)
		}
		s.tlpTimer = s.s.Schedule(s.tlpEv, s.tlpDeadline)
	}
}

func (s *Sender) tlpTick() {
	s.tlpPending = false
	if s.done || s.tlpDeadline == 0 {
		return
	}
	if now := s.s.Now(); now < s.tlpDeadline {
		s.tlpPending = true
		s.tlpTimer = s.s.Schedule(s.tlpEv, s.tlpDeadline)
		return
	}
	s.onTLP()
}

func (s *Sender) onTLP() {
	if s.done || !s.outstanding() {
		return
	}
	s.tlpFired = true
	// Probe: transmit new data if available, else retransmit the
	// highest-sequence outstanding segment.
	if s.unsent() {
		seq := s.Board.Nxt
		s.transmit(seq, seq+min(s.Board.N-seq, int64(s.cfg.MSS)), false, s.tlt.TakeMark(false, s.s.Now()))
	} else if seq := s.Board.LastUnsacked(); seq >= 0 {
		// Retransmit the last unsacked segment (TLP probes the tail).
		s.transmit(seq, 0, true, packet.Unimportant)
	}
	s.armRTO()
}

func (s *Sender) onRTO() {
	if s.done || !s.outstanding() {
		return
	}
	s.rec.Timeouts++
	s.retries++
	if s.cfg.RTO.MaxRetries > 0 && s.retries >= s.cfg.RTO.MaxRetries {
		s.abort()
		return
	}
	maxShift := uint(12) // Linux-like default cap
	if s.cfg.RTO.MaxBackoffShift > 0 {
		maxShift = s.cfg.RTO.MaxBackoffShift
	}
	if s.backoff < maxShift {
		s.backoff++
	}
	// Collapse to loss recovery: everything unsacked is lost; any
	// retransmission in flight is presumed lost too.
	s.Board.MarkAllLost()
	half := s.pipe() / 2
	if half < 2*float64(s.cfg.MSS) {
		half = 2 * float64(s.cfg.MSS)
	}
	s.ssthresh = half
	s.cwnd = float64(s.cfg.MSS)
	s.inRecovery = true
	s.recoveryPoint = s.Board.Nxt
	s.tlt.Reset()
	s.output()
	s.armRTO()
}

func (s *Sender) complete() {
	if s.done {
		return
	}
	s.retire()
	if s.onDone != nil {
		s.onDone()
	}
}

// retire ends the flow and cancels any pending tick events. The ticks
// would be no-ops once done, but a cancelled event is reclaimed by the
// scheduler right away, while a parked one pins the whole Sender in
// memory until its deadline passes — on churn workloads that window
// (RTOmin and up) can exceed the entire run, turning "done" senders into
// O(flows) live heap — and would make the sender unfit for Reset.
//
// Nothing reads the board's entries after done, so its backing goes back
// to the shared list for the next flow that starts; a sender without one
// keeps it for its own next flow.
func (s *Sender) retire() {
	s.done = true
	s.Board.Release()
	s.rtoDeadline = 0
	s.tlpDeadline = 0
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.rtoPending = false
	s.tlpPending = false
}

// abort terminates the flow after MaxRetries consecutive timeouts: the
// path is treated as permanently black-holed (IB QP retry exhaustion /
// tcp_retries2 giving up). The sender stops retransmitting and reports
// terminal state through OnAbort and FlowStatus.
func (s *Sender) abort() {
	if s.done {
		return
	}
	s.aborted = true
	s.retire()
	s.tlt.Reset()
	if s.OnAbort != nil {
		s.OnAbort()
	}
}

// Aborted reports whether the sender gave up (for tests).
func (s *Sender) Aborted() bool { return s.aborted }
