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

// kindTLPTick fires the TLP lazy-deadline tick through a static handler
// on a preallocated per-sender event, so re-arming it never allocates.
var kindTLPTick = sim.NewKind(func(_, arg any) {
	if s := arg.(*Sender); s.tlp.Due(s.S) {
		s.onTLP()
	}
})

// Sender is the sending endpoint of a TCP-family connection: a law on
// the reliability core (transport.Sender) — NewReno with SACK recovery,
// DCTCP's ECN-fraction window, tail loss probes, TLT's adaptive clock
// payload, and the estimated RTO as the core's timeout.
type Sender struct {
	// The core's Board is over the stream's bytes, one range per segment:
	// Una is the first unacknowledged byte, Nxt the next new one and N how
	// many the application has written so far.
	transport.ByteSender
	cfg Config

	// OnComplete, if set, fires when a closed stream is wholly
	// acknowledged: the sender's side of completion (the FCT is stamped
	// at the receiver). Reset clears it.
	OnComplete func()

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

	rtoEst   transport.RTOEstimator
	tlp      transport.Deadline
	tlpFired bool // one probe per episode
}

// Reset initialises the sender for flow on host; see
// transport.Sender.Reset. Of the law only the TLP tick event carries
// over.
func (s *Sender) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	cfg.TLT.Flow = flow.ID
	if cfg.RTO.MaxBackoffShift == 0 {
		cfg.RTO.MaxBackoffShift = 12 // Linux-like default cap
	}
	s.ByteSender.Reset(s, host, flow, cfg.MSS, &s.cfg.RTO, rec)
	// A stream's board starts empty and grows as the application writes.
	s.Board.Reset(0, cfg.InitWindowSegs, cfg.TLT.Clock == core.ClockOneByte)
	// The estimator and the TLT machine live in the sender by value; their
	// constructors inline, so the dereferences allocate nothing.
	*s = Sender{
		ByteSender: s.ByteSender,
		cfg:        cfg,
		cwnd:       float64(cfg.InitWindowSegs * cfg.MSS),
		ssthresh:   cfg.MaxCwndBytes,
		rtoEst:     *transport.NewRTOEstimator(cfg.RTO),
		tlp:        s.tlp.Rest(),
	}
	s.Win = *core.NewWindowSender(cfg.TLT)
}

// Clear zeroes a finished sender down to what Reset carries over; see
// transport.Sender.Clear.
func (s *Sender) Clear() {
	s.ByteSender.Clear()
	*s = Sender{ByteSender: s.ByteSender, tlp: s.tlp.Rest()}
}

// Write appends n bytes to the stream and kicks transmission.
func (s *Sender) Write(n int64) {
	s.Board.N += n
	if !s.Done() {
		s.output()
		s.ArmRTO()
		s.armTLP()
	}
}

// Close marks the stream complete; the sender finishes when everything is
// acknowledged.
func (s *Sender) Close() { s.closed = true }

// Describe implements the core's stall snapshot hook: a byte stream's
// counts and the congestion state.
func (s *Sender) Describe(fs *transport.FlowStatus) {
	fs.Transport = "tcp"
	fs.AckedBytes, fs.TotalBytes = s.Board.Una, s.Board.N
	fs.OutstandingBytes, fs.LostBytes = s.Board.Nxt-s.Board.Una, s.Board.Lost()
	if !fs.Done {
		fs.State = "open"
		switch {
		case s.inRecovery:
			fs.State = "recovery"
		case s.Backoff() > 0:
			fs.State = "rto-backoff"
		case s.cwnd < s.ssthresh:
			fs.State = "slow-start"
		}
		if s.Backoff() > 0 {
			fs.State += fmt.Sprintf("(backoff=%d)", s.Backoff())
		}
	}
	if s.tlp.At > 0 {
		fs.Timers = append(fs.Timers, fmt.Sprintf("tlp@%v", s.tlp.At))
	}
}

// Start writes the flow's whole message and closes the stream: the start
// of a StartFlow connection. The recorder Open named also collects RTT,
// RTO and delivery samples.
func (s *Sender) Start() {
	if r := s.Recorder(); r != nil && r.DeliverySamples != nil {
		s.Board.SampleDeliveries(s.S, r.DeliverySamples)
	}
	s.Write(s.Flow().Size)
	s.Close()
}

// Handle implements fabric.PacketHandler for the ACK path.
func (s *Sender) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Ack || s.Done() {
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
	s.Rec.FastRecov++
	s.ssthresh = max(s.cwnd/2, 2*float64(s.cfg.MSS))
	s.cwnd = s.ssthresh
}

func (s *Sender) onAck(pkt *packet.Packet) {
	now := s.S.Now()

	// RTT sampling (Karn: receivers echo timestamps only for
	// non-retransmitted packets).
	if pkt.EchoTS > 0 {
		rtt := now - pkt.EchoTS
		s.rtoEst.Sample(rtt)
		if r := s.Recorder(); r != nil {
			if s.Flow().FG {
				if r.RTTSamplesFG != nil {
					r.RTTSamplesFG.Add(rtt.Seconds())
					r.RTOSamplesFG.Add(s.rtoEst.RTO().Seconds())
				}
			} else if r.RTTSamplesBG != nil {
				r.RTTSamplesBG.Add(rtt.Seconds())
				r.RTOSamplesBG.Add(s.rtoEst.RTO().Seconds())
			}
		}
	}

	// TLT (Algorithm 1 ReceiveAck): a clock echo that made no progress is
	// dropped before congestion control sees it (Appendix A); the echoed
	// send time is for RTT samples only, so only the echo marks loss.
	una := s.Board.Una
	stale := core.StaleClockEcho(pkt.Mark, pkt.Ack, una)
	progressed, _ := s.Intake(pkt, 0)
	s.maybeEnterRecovery()

	if !stale {
		s.ccOnAck(pkt, s.Board.Una-una)
	}

	if s.inRecovery && s.Board.Una >= s.recoveryPoint {
		s.inRecovery = false
	}
	if progressed {
		s.tlpFired = false
	}

	if s.closed && s.Board.Complete() {
		s.Finish(false)
		if s.OnComplete != nil {
			s.OnComplete()
		}
		return
	}

	s.output()

	// Important ACK-clocking: the echo armed us, but the window (or the
	// send buffer) did not let output consume the mark. Inject an
	// important packet regardless of window to keep the clock alive.
	if s.Win.Armed() && (s.outstanding() || s.unsent()) {
		s.importantClock()
	}

	s.ArmRTO()
	s.armTLP()
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
				s.cwnd = max(s.cwnd*(1-s.alpha/2), float64(s.cfg.MSS))
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
	s.cwnd = min(s.cwnd, s.cfg.MaxCwndBytes)
}

// output transmits retransmissions then new data while the window allows.
func (s *Sender) output() {
	if s.Done() {
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
			s.transmit(seq, 0, true, s.Win.TakeMark(!more, s.S.Now()))
			continue
		}
		if !s.unsent() {
			return
		}
		seq := s.Board.Nxt
		n := min(s.Board.N-seq, int64(s.cfg.MSS))
		more := seq+n < s.Board.N && s.pipe()+float64(2*n) < s.cwnd
		s.transmit(seq, seq+n, false, s.Win.TakeMark(!more, s.S.Now()))
	}
}

// transmit puts the range at seq on the wire — a new one, [seq, end), if
// seq is Board.Nxt — and returns its length.
func (s *Sender) transmit(seq, end int64, isRetx bool, mark packet.Mark) int64 {
	now := s.S.Now()
	end = s.Board.Send(seq, end, isRetx, now)
	if isRetx {
		s.Rec.RetxPackets++
	}
	pkt := s.data(seq, int(end-seq), mark)
	if !isRetx {
		pkt.SentAt = now // Karn: no RTT sample from retransmissions
	}
	pkt.IsRetx = isRetx
	s.Send(pkt)
	return end - seq
}

// data is the core's data packet with tcp's traffic class and ECN.
func (s *Sender) data(seq int64, n int, mark packet.Mark) *packet.Packet {
	pkt := s.Data(seq, n, mark)
	pkt.TC = s.cfg.TrafficClass
	pkt.ECT = s.cfg.ECN
	return pkt
}

// importantClock injects an important packet ignoring the window
// (Algorithm 1 importantAckClocking, with the adaptive payload of §5.1).
func (s *Sender) importantClock() {
	now := s.S.Now()
	mode := s.Win.Mode()

	// Loss indicated and policy allows: retransmit a full MSS of the
	// first lost data to speed recovery.
	if seq := s.Board.NextRetx(); seq >= 0 && mode != core.ClockOneByte {
		s.Rec.ClockSends++
		s.Rec.ClockBytes += s.transmit(seq, 0, true, s.Win.TakeClockMark(now))
		return
	}

	if mode == core.ClockFullMTU {
		// Redundantly retransmit the first unacked segment in full.
		if seq := s.Board.FirstUnsacked(); seq >= 0 {
			s.Rec.ClockSends++
			s.Rec.ClockBytes += s.transmit(seq, 0, true, s.Win.TakeClockMark(now))
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
		s.Rec.ClockSends++
		s.Rec.ClockBytes++
		s.transmit(seq, seq+1, false, s.Win.TakeClockMark(now))
		return
	}
	pkt := s.data(seq, 1, s.Win.TakeClockMark(now))
	pkt.IsRetx = true
	s.Rec.ClockSends++
	s.Rec.ClockBytes++
	s.Send(pkt)
}

// Timeout implements the core's timeout: the estimated RTO while data is
// outstanding, else none.
func (s *Sender) Timeout() (sim.Time, bool) {
	if !s.outstanding() {
		return 0, false
	}
	return s.rtoEst.RTO(), false
}

func (s *Sender) armTLP() {
	if !s.cfg.TLP || s.Win.Enabled() || s.Done() || !s.outstanding() || s.tlpFired {
		s.tlp.At = 0
		return
	}
	s.tlp.Arm(s.S, s.S.Now()+max(2*s.rtoEst.SRTT(), s.cfg.TLPMinPTO), kindTLPTick, s)
}

func (s *Sender) onTLP() {
	if s.Done() || !s.outstanding() {
		return
	}
	s.tlpFired = true
	// Probe: transmit new data if available, else retransmit the
	// highest-sequence outstanding segment.
	if s.unsent() {
		seq := s.Board.Nxt
		s.transmit(seq, seq+min(s.Board.N-seq, int64(s.cfg.MSS)), false, s.Win.TakeMark(false, s.S.Now()))
	} else if seq := s.Board.LastUnsacked(); seq >= 0 {
		// Retransmit the last unsacked segment (TLP probes the tail).
		s.transmit(seq, 0, true, packet.Unimportant)
	}
	s.ArmRTO()
}

// Recover implements the core's RTO hook: collapse to loss recovery —
// everything unsacked is lost, any retransmission in flight is presumed
// lost too — and restart from a one-segment window.
func (s *Sender) Recover() {
	s.Board.MarkAllLost()
	s.ssthresh = max(s.pipe()/2, 2*float64(s.cfg.MSS))
	s.cwnd = float64(s.cfg.MSS)
	s.inRecovery = true
	s.recoveryPoint = s.Board.Nxt
	s.Win.Reset()
	s.output()
	s.ArmRTO()
}

// Quiesce implements the core's end-of-flow hook: both ticks leave the
// queue. Fired as no-ops they would pin the whole Sender in memory until
// their deadlines pass — on churn workloads that window (RTOmin and up)
// can exceed the entire run, turning done senders into O(flows) live
// heap — and would make the sender unfit for Reset.
func (s *Sender) Quiesce() {
	s.StopRTO()
	s.tlp.Stop(s.S)
}
