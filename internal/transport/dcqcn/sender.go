package dcqcn

import (
	"fmt"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Typed event kinds: the pacing tick (the hottest event in every DCQCN
// run) and the DCQCN rate-increase/alpha timers fire through static
// handlers on preallocated per-sender events, so re-arming never boxes a
// method-value closure.
var kindSendOne, kindRPTick, kindAlphaTick sim.EventKind

func init() {
	kindSendOne = sim.NewKind(func(_, arg any) { arg.(*Sender).sendOne() })
	kindRPTick = sim.NewKind(func(_, arg any) { arg.(*Sender).rpTick() })
	kindAlphaTick = sim.NewKind(func(_, arg any) { arg.(*Sender).alphaTick() })
}

// Sender is a DCQCN queue pair transmitting one message (flow) at a
// paced rate, with the configured recovery variant. Reliability — the
// scoreboard, the RTO, ACK intake, the packet fill — is the embedded
// transport.QPSender; what is here is the rate law, the pacer, go-back-N
// and the choice of TLT marking policy.
type Sender struct {
	transport.QPSender
	cfg Config

	maxSent int64 // highest PSN ever sent + 1 (go-back-N rewinds Board.Nxt)

	// Rate control state.
	rate, target float64 // bps
	alpha        float64
	stage        int
	bytesCtr     int64

	// Pacing.
	nextFree sim.Time

	// The pacer's event, and the rate-increase and alpha-decay timers.
	sendEv    *sim.Event
	rp, decay transport.Deadline

	// TLT marking: the rate machine for GBN/SACK (its zero value never
	// marks); IRN uses the core's window machine (Win).
	tltRate    core.RateSender
	roundStart bool // next retransmission starts a round
}

// Reset initialises the sender for flow on host, in whatever mode cfg
// says; see transport.QPSender.Reset, which panics on a sender that is
// mid-flow. Of the rate law only the three tick events carry over.
func (s *Sender) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	cfg.TLT.Flow = flow.ID
	s.QPSender.Reset(s, host, flow, cfg.MSS, &s.cfg.RTO, rec)
	*s = Sender{
		QPSender: s.QPSender,
		cfg:      cfg,
		rate:     float64(cfg.LineRateBps),
		target:   float64(cfg.LineRateBps),
		sendEv:   s.sendEv, rp: s.rp.Rest(), decay: s.decay.Rest(),
	}
	if cfg.TLT.Enabled {
		if cfg.Mode == IRN {
			s.Win = *core.NewWindowSender(cfg.TLT)
		} else {
			s.tltRate = *core.NewRateSender(cfg.TLT)
		}
	}
}

// Clear zeroes a finished sender down to what Reset carries over; see
// transport.QPSender.Clear.
func (s *Sender) Clear() {
	s.QPSender.Clear()
	*s = Sender{QPSender: s.QPSender, sendEv: s.sendEv, rp: s.rp.Rest(), decay: s.decay.Rest()}
}

// Start begins transmission.
func (s *Sender) Start() {
	s.schedule()
	s.ArmRTO()
}

// Describe adds the rate law's state to a stall snapshot.
func (s *Sender) Describe(fs *transport.FlowStatus) {
	if fs.State == "open" && s.roundStart {
		fs.State = "retx-round"
	}
	fs.Transport = "dcqcn"
	fs.State = fmt.Sprintf("%s(rate=%.1fGbps)", fs.State, s.rate/1e9)
	if s.sendEv != nil && s.sendEv.Scheduled() {
		fs.Timers = append(fs.Timers, "pacing-pending")
	}
}

// Handle implements fabric.PacketHandler for ACK/NACK/CNP.
func (s *Sender) Handle(pkt *packet.Packet) {
	if s.Done() {
		return
	}
	switch pkt.Type {
	case packet.Ack:
		s.onAck(pkt)
	case packet.Nack:
		s.onNack(pkt)
	case packet.Cnp:
		s.onCnp()
	}
}

// pickPSN chooses the next PSN to transmit: retransmissions first, then
// fresh data subject to the IRN window. A go-back-N rewind makes PSNs
// below maxSent come out of the "fresh" path; they are retransmissions
// all the same (Fig. 4: the first of them must be marked important).
func (s *Sender) pickPSN() (psn int64, isRetx, ok bool) {
	if p := s.Board.NextRetx(); p >= 0 {
		return p, true, true
	}
	if irnCap := s.cfg.Mode == IRN && s.cfg.BDPPkts > 0; s.Board.Nxt < s.Board.N && (!irnCap || s.Board.InFlight() < s.cfg.BDPPkts) {
		return s.Board.Nxt, s.Board.Nxt < s.maxSent, true
	}
	return 0, false, false
}

func (s *Sender) schedule() {
	if s.Done() || (s.sendEv != nil && s.sendEv.Scheduled()) {
		return
	}
	if _, _, ok := s.pickPSN(); ok {
		if s.sendEv == nil {
			s.sendEv = s.S.NewKindEvent(kindSendOne, 0, s)
		}
		s.S.Schedule(s.sendEv, max(s.S.Now(), s.nextFree))
	}
}

func (s *Sender) sendOne() {
	if s.Done() {
		return
	}
	psn, isRetx, ok := s.pickPSN()
	if !ok {
		return
	}
	s.pace(s.Transmit(psn, isRetx, s.mark(psn, isRetx)))
	if psn >= s.maxSent {
		s.maxSent = psn + 1
	}
	s.schedule()
}

// mark derives an outgoing packet's mark from the TLT machine in use.
func (s *Sender) mark(psn int64, isRetx bool) packet.Mark {
	switch {
	case s.tltRate.Enabled():
		// §5.2: mark the first and the last packet of a retransmission
		// round, and the last packet of the message. For go-back-N the
		// round's last packet is the end of the rewound window; for
		// selective modes it is the final pending retransmission.
		roundEnd := s.cfg.Mode != GBN && s.Board.PendingRetx() <= 1
		roundEdge := isRetx && (s.roundStart || roundEnd)
		if isRetx {
			s.roundStart = false
		}
		return s.tltRate.TakeMark(psn == s.Board.N-1, roundEdge)
	case s.Win.Enabled():
		// §5.1 (IRN): fresh data can follow if the window allows one more.
		more := s.MoreAfter(psn, isRetx, s.Board.InFlight()+1 < s.cfg.BDPPkts)
		return s.Win.TakeMark(!more, s.S.Now())
	}
	return packet.Unimportant
}

// pace books wire bytes just sent against the pacer and the
// rate-increase byte counter.
func (s *Sender) pace(wire int64) {
	s.nextFree = s.S.Now() + sim.Time(float64(wire*8)*1e9/s.rate)
	s.bytesCtr += wire
	if s.cfg.ByteCounter > 0 && s.bytesCtr >= s.cfg.ByteCounter {
		s.bytesCtr = 0
		s.increase()
	}
}

func (s *Sender) onAck(pkt *packet.Packet) {
	open, newLoss := s.OnAck(pkt)
	if newLoss {
		s.roundStart = true
		s.Rec.FastRecov++
	}
	if !open {
		return
	}
	s.schedule()

	// IRN + TLT important clocking: keep one important packet in flight
	// when the window is closed.
	if s.Win.Armed() {
		if _, _, ok := s.pickPSN(); !ok || s.nextFree > s.S.Now() {
			if wire := s.ImportantClock(); wire > 0 {
				s.pace(wire)
			}
		}
	}
}

func (s *Sender) onNack(pkt *packet.Packet) {
	// Go-back-N: the receiver expects pkt.Ack; everything below it was
	// delivered in order, which is all a NACK says to the ACK intake.
	if open, _ := s.OnAck(pkt); !open {
		return
	}
	s.Board.Rewind(pkt.Ack)
	s.roundStart = true
	s.Rec.FastRecov++
	s.ArmRTO()
	s.schedule()
}

func (s *Sender) onCnp() {
	s.target = s.rate
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
	s.rate = max(s.rate*(1-s.alpha/2), float64(s.cfg.MinRateBps))
	s.stage = 0
	s.bytesCtr = 0
	if !s.rp.Pending() {
		s.rp.Arm(s.S, s.S.Now()+s.cfg.RPTimer, kindRPTick, s)
	}
	if !s.decay.Pending() {
		s.decay.Arm(s.S, s.S.Now()+s.cfg.AlphaTimer, kindAlphaTick, s)
	}
}

func (s *Sender) rpTick() {
	if !s.rp.Due(s.S) || s.Done() {
		return
	}
	s.increase()
	if s.rate < float64(s.cfg.LineRateBps)*0.999 {
		s.rp.Arm(s.S, s.S.Now()+s.cfg.RPTimer, kindRPTick, s)
	}
}

func (s *Sender) alphaTick() {
	if !s.decay.Due(s.S) || s.Done() {
		return
	}
	s.alpha *= 1 - s.cfg.G
	if s.alpha > 1e-4 {
		s.decay.Arm(s.S, s.S.Now()+s.cfg.AlphaTimer, kindAlphaTick, s)
	}
}

// increase performs one DCQCN rate-increase event: fast recovery toward
// the target, then additive, then hyper increase.
func (s *Sender) increase() {
	s.stage++
	line := float64(s.cfg.LineRateBps)
	switch {
	case s.stage <= s.cfg.FastRecoverySteps:
		// fast recovery: converge to target
	case s.stage <= s.cfg.HyperAfterSteps:
		s.target += s.cfg.AIBps
	default:
		s.target += s.cfg.HAIBps
	}
	s.target = min(s.target, line)
	s.rate = min((s.target+s.rate)/2, line)
}

// Timeout implements the core's timeout: the static RTO or, while fewer
// than NLow packets of an IRN queue pair are in flight, RTO_low — IRN's
// cheap recovery path for tiny outstanding windows (Mittal et al.).
func (s *Sender) Timeout() (sim.Time, bool) {
	if s.cfg.Mode == IRN && s.cfg.RTOLow > 0 && s.Board.InFlight() < s.cfg.NLow {
		return s.cfg.RTOLow, true
	}
	return s.cfg.RTO.Fixed, false
}

// Recover implements the core's RTO hook: rewind (go-back-N) or mark
// everything outstanding lost, and start a retransmission round.
func (s *Sender) Recover() {
	if s.cfg.Mode == GBN {
		s.Board.Rewind(s.Board.Una)
	} else {
		s.Board.MarkAllLost()
		s.Win.Reset()
	}
	s.roundStart = true
	s.ArmRTO()
	s.schedule()
}

// Quiesce stops the pacer and the rate timers of a finished flow.
func (s *Sender) Quiesce() {
	s.S.Cancel(s.sendEv)
	s.rp.Stop(s.S)
	s.decay.Stop(s.S)
}

// StartFlow creates a queue pair carrying flow.Size bytes from src to dst
// starting at flow.Start; see transport.Start.
func StartFlow(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*Sender, *Receiver) {
	snd, rcv := new(Sender), new(Receiver)
	transport.Start(snd, rcv, src, dst, flow, cfg, recorder, onDone)
	return snd, rcv
}
