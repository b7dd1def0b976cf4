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
// run), the DCQCN rate-increase/alpha timers and the lazy RTO tick all
// fire through static handlers on preallocated per-sender events, so
// re-arming never boxes a method-value closure.
var kindSendOne, kindRPTick, kindAlphaTick, kindRTOTick sim.EventKind

func init() {
	kindSendOne = sim.NewKind(func(_, arg any) { arg.(*Sender).sendOne() })
	kindRPTick = sim.NewKind(func(_, arg any) { arg.(*Sender).rpTick() })
	kindAlphaTick = sim.NewKind(func(_, arg any) { arg.(*Sender).alphaTick() })
	kindRTOTick = sim.NewKind(func(_, arg any) { arg.(*Sender).rtoTick() })
}

// Sender is a DCQCN queue pair transmitting one message (flow) at a
// paced rate, with the configured recovery variant.
type Sender struct {
	s    *sim.Sim
	host *fabric.Host
	flow *transport.Flow
	cfg  Config

	rec      *stats.FlowRecord
	recorder *stats.Recorder
	onDone   func()

	n       int64 // packets in the message
	lastLen int   // payload of the final packet
	board   *transport.PktBoard
	maxSent int64 // highest PSN ever sent + 1 (go-back-N rewinds board.Nxt)

	// Rate control state.
	rate, target float64 // bps
	alpha        float64
	stage        int
	bytesCtr     int64
	rpTimer      sim.Timer
	alphaTimer   sim.Timer
	rpEv         *sim.Event // preallocated tick events (lazily created)
	alphaEv      *sim.Event

	// Pacing.
	nextFree  sim.Time
	sendTimer sim.Timer
	sendEv    *sim.Event

	rtoDeadline sim.Time // lazy RTO: 0 = disarmed
	rtoPending  bool
	rtoEv       *sim.Event
	rtoIsLow    bool // armed with IRN's RTO_low
	backoff     uint // exponential backoff shift (only if RTO.MaxBackoffShift > 0)
	retries     int  // consecutive full-RTO rounds without forward progress

	// TLT marking: rate machine for GBN/SACK, window machine for IRN.
	tltRate    *core.RateSender
	tltWin     *core.WindowSender
	roundStart bool // next retransmission starts a round

	done    bool
	aborted bool

	// OnAbort fires once when the QP exhausts RTO.MaxRetries consecutive
	// timeouts without progress (IB retry-count exceeded). May be nil.
	OnAbort func()
}

// NewSender constructs a queue pair sender. The message is flow.Size
// bytes, segmented into MSS packets.
func NewSender(s *sim.Sim, host *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder, onDone func()) *Sender {
	n := (flow.Size + int64(cfg.MSS) - 1) / int64(cfg.MSS)
	if n == 0 {
		n = 1
	}
	lastLen := int(flow.Size - (n-1)*int64(cfg.MSS))
	cfg.TLT.Flow = flow.ID
	snd := &Sender{
		s: host.Sim(), host: host, flow: flow, cfg: cfg,
		rec: rec, recorder: recorder, onDone: onDone,
		n: n, lastLen: lastLen,
		board:  transport.NewPktBoard(n),
		rate:   float64(cfg.LineRateBps),
		target: float64(cfg.LineRateBps),
	}
	if cfg.TLT.Enabled {
		if cfg.Mode == IRN {
			snd.tltWin = core.NewWindowSender(cfg.TLT)
		} else {
			snd.tltRate = core.NewRateSender(cfg.TLT)
		}
	}
	return snd
}

// Start begins transmission.
func (s *Sender) Start() {
	s.schedule()
	s.armRTO()
}

// FlowStatus implements transport.StatusReporter for stall reports.
func (s *Sender) FlowStatus() transport.FlowStatus {
	state := "open"
	switch {
	case s.aborted:
		state = "aborted"
	case s.done:
		state = "done"
	case s.board.HasLoss():
		state = "loss-recovery"
	case s.roundStart:
		state = "retx-round"
	}
	mss := int64(s.cfg.MSS)
	fs := transport.FlowStatus{
		Flow:              s.flow.ID,
		Transport:         "dcqcn",
		State:             fmt.Sprintf("%s(rate=%.1fGbps)", state, s.rate/1e9),
		Done:              s.done,
		Aborted:           s.aborted,
		AckedBytes:        min64(s.board.Una*mss, s.flow.Size),
		TotalBytes:        s.flow.Size,
		OutstandingBytes:  s.board.InFlight() * mss,
		LostBytes:         s.board.PendingRetx() * mss,
		ImportantInFlight: s.tltWin != nil && s.tltWin.InFlight(),
		RTOArmed:          s.rtoDeadline > 0,
		RTODeadline:       s.rtoDeadline,
	}
	if s.sendTimer.Pending() {
		fs.Timers = append(fs.Timers, "pacing-pending")
	}
	return fs
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Done reports sender-side completion.
func (s *Sender) Done() bool { return s.done }

// Rate returns the current sending rate in bps (for tests).
func (s *Sender) Rate() float64 { return s.rate }

// Handle implements fabric.PacketHandler for ACK/NACK/CNP.
func (s *Sender) Handle(pkt *packet.Packet) {
	if s.done {
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

func (s *Sender) windowOK() bool {
	if s.cfg.Mode != IRN || s.cfg.BDPPkts <= 0 {
		return true
	}
	return s.board.InFlight() < s.cfg.BDPPkts
}

// pickPSN chooses the next PSN to transmit: retransmissions first, then
// fresh data subject to the IRN window. A go-back-N rewind makes PSNs
// below maxSent come out of the "fresh" path; they are retransmissions
// all the same (Fig. 4: the first of them must be marked important).
func (s *Sender) pickPSN() (psn int64, isRetx, ok bool) {
	if p := s.board.NextRetx(); p >= 0 {
		return p, true, true
	}
	if s.board.Nxt < s.n && s.windowOK() {
		return s.board.Nxt, s.board.Nxt < s.maxSent, true
	}
	return 0, false, false
}

func (s *Sender) schedule() {
	if s.done || s.sendTimer.Pending() {
		return
	}
	if _, _, ok := s.pickPSN(); !ok {
		return
	}
	at := s.s.Now()
	if s.nextFree > at {
		at = s.nextFree
	}
	if s.sendEv == nil {
		s.sendEv = s.s.NewKindEvent(kindSendOne, 0, s)
	}
	s.sendTimer = s.s.Schedule(s.sendEv, at)
}

func (s *Sender) sendOne() {
	if s.done {
		return
	}
	psn, isRetx, ok := s.pickPSN()
	if !ok {
		return
	}
	s.transmit(psn, isRetx, packet.Mark(0xff))
	s.schedule()
}

// transmit puts PSN on the wire. markOverride of 0xff means "derive from
// the TLT machines"; any other value forces the mark (clock injections).
func (s *Sender) transmit(psn int64, isRetx bool, markOverride packet.Mark) {
	now := s.s.Now()
	length := s.cfg.MSS
	last := psn == s.n-1
	if last {
		length = s.lastLen
	}

	mark := packet.Unimportant
	switch {
	case markOverride != packet.Mark(0xff):
		mark = markOverride
	case s.tltRate != nil:
		// §5.2: mark the first and the last packet of a retransmission
		// round, and the last packet of the message. For go-back-N the
		// round's last packet is the end of the rewound window; for
		// selective modes it is the final pending retransmission.
		roundEnd := s.cfg.Mode != GBN && s.board.PendingRetx() <= 1
		roundEdge := isRetx && (s.roundStart || roundEnd)
		mark = s.tltRate.TakeMark(last, roundEdge)
		if isRetx {
			s.roundStart = false
		}
	case s.tltWin != nil:
		more := s.moreAfter(psn, isRetx)
		mark = s.tltWin.TakeMark(!more, now)
	}

	// Field-by-field fill on the zeroed pooled packet (a composite
	// literal would copy the whole INT-array-bearing struct).
	pkt := s.host.NewPacket()
	pkt.Flow, pkt.Dst = s.flow.ID, s.flow.Dst
	pkt.Type = packet.Data
	pkt.Seq, pkt.Len = psn, length
	pkt.Mark = mark
	pkt.ECT = true
	pkt.SentAt = now
	pkt.IsRetx = isRetx
	pkt.LastPkt = last
	s.board.OnSent(psn, isRetx, now)
	if psn >= s.maxSent {
		s.maxSent = psn + 1
	}
	if isRetx {
		s.rec.RetxPackets++
	}
	s.account(pkt)
	s.host.Send(pkt)

	// Pacing + rate-increase byte counter.
	wire := int64(pkt.WireSize())
	s.nextFree = now + sim.Time(float64(wire*8)*1e9/s.rate)
	s.bytesCtr += wire
	if s.cfg.ByteCounter > 0 && s.bytesCtr >= s.cfg.ByteCounter {
		s.bytesCtr = 0
		s.increase()
	}
}

func (s *Sender) moreAfter(psn int64, isRetx bool) bool {
	// Whether another transmission could immediately follow.
	if isRetx {
		for p := psn + 1; p < s.board.Nxt; p++ {
			st := s.board.State(p)
			if st.Lost && !st.Retx {
				return true
			}
		}
	}
	if psn+1 < s.n && psn+1 >= s.board.Nxt {
		// Fresh send: more fresh data exists if window allows one more.
		if s.cfg.Mode != IRN || s.board.InFlight()+1 < s.cfg.BDPPkts {
			return true
		}
	}
	return false
}

func (s *Sender) account(pkt *packet.Packet) {
	s.rec.SentPackets++
	size := int64(pkt.WireSize())
	s.rec.TotalBytes += size
	if pkt.Important() {
		s.rec.ImpPackets++
		s.rec.ImpBytes += size
	}
}

func (s *Sender) onAck(pkt *packet.Packet) {
	// TLT window echo (IRN).
	var impSentAt sim.Time
	rackOK := false
	if s.tltWin != nil {
		switch pkt.Mark {
		case packet.ImportantEcho, packet.ImportantClockEcho:
			impSentAt, rackOK = s.tltWin.OnEcho()
		}
	}

	progressed := s.board.Ack(pkt.Ack)
	if s.cfg.Mode != GBN {
		hadLoss := s.board.HasLoss()
		s.board.Sack(pkt.Sack)
		if rackOK {
			s.board.RackMark(impSentAt)
		}
		// Every ACK proves its data packet round-tripped: anything sent
		// strictly earlier and still unacknowledged — including stale
		// retransmissions — is lost (commercial RoCE NACK semantics).
		if pkt.EchoTS > 0 {
			s.board.RackMark(pkt.EchoTS)
		}
		s.board.ApplyLostEdge()
		if !hadLoss && s.board.HasLoss() {
			s.roundStart = true
			s.rec.FastRecov++
		}
	}

	if s.board.Complete() {
		s.complete()
		return
	}
	if progressed {
		s.backoff = 0
		s.retries = 0 // Karn: forward progress resets the give-up counter
		s.armRTO()
	}
	s.schedule()

	// IRN + TLT important clocking: keep one important packet in flight
	// when the window is closed.
	if s.tltWin != nil && s.tltWin.Armed() {
		if _, _, ok := s.pickPSN(); !ok || s.nextFree > s.s.Now() {
			s.importantClock()
		}
	}
}

// importantClock (IRN): retransmit the first unsacked packet immediately,
// marked ImportantClockData, bypassing window and pacing.
func (s *Sender) importantClock() {
	psn := s.board.NextRetx()
	isRetx := true
	if psn < 0 {
		psn = s.board.FirstUnsacked()
		isRetx = false
		if psn < 0 {
			return
		}
	}
	s.rec.ClockSends++
	length := int64(s.cfg.MSS)
	if psn == s.n-1 {
		length = int64(s.lastLen)
	}
	s.rec.ClockBytes += length
	if !isRetx {
		s.rec.RetxPackets++ // redundant duplicate of an outstanding PSN
	}
	s.transmit(psn, isRetx, s.tltWin.TakeClockMark(s.s.Now()))
}

func (s *Sender) onNack(pkt *packet.Packet) {
	// Go-back-N: the receiver expects pkt.Ack; everything below it was
	// delivered in order.
	if s.board.Ack(pkt.Ack) {
		s.backoff = 0
		s.retries = 0
	}
	if s.board.Complete() {
		s.complete()
		return
	}
	s.board.Rewind(pkt.Ack)
	s.roundStart = true
	s.rec.FastRecov++
	s.armRTO()
	s.schedule()
}

func (s *Sender) onCnp() {
	s.target = s.rate
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
	s.rate *= 1 - s.alpha/2
	if s.rate < float64(s.cfg.MinRateBps) {
		s.rate = float64(s.cfg.MinRateBps)
	}
	s.stage = 0
	s.bytesCtr = 0
	s.startRateTimers()
}

func (s *Sender) startRateTimers() {
	if !s.rpTimer.Pending() {
		if s.rpEv == nil {
			s.rpEv = s.s.NewKindEvent(kindRPTick, 0, s)
		}
		s.rpTimer = s.s.Schedule(s.rpEv, s.s.Now()+s.cfg.RPTimer)
	}
	if !s.alphaTimer.Pending() {
		if s.alphaEv == nil {
			s.alphaEv = s.s.NewKindEvent(kindAlphaTick, 0, s)
		}
		s.alphaTimer = s.s.Schedule(s.alphaEv, s.s.Now()+s.cfg.AlphaTimer)
	}
}

func (s *Sender) rpTick() {
	if s.done {
		return
	}
	s.increase()
	if s.rate < float64(s.cfg.LineRateBps)*0.999 {
		s.rpTimer = s.s.Schedule(s.rpEv, s.s.Now()+s.cfg.RPTimer)
	}
}

func (s *Sender) alphaTick() {
	if s.done {
		return
	}
	s.alpha *= 1 - s.cfg.G
	if s.alpha > 1e-4 {
		s.alphaTimer = s.s.Schedule(s.alphaEv, s.s.Now()+s.cfg.AlphaTimer)
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
	if s.target > line {
		s.target = line
	}
	s.rate = (s.target + s.rate) / 2
	if s.rate > line {
		s.rate = line
	}
}

func (s *Sender) armRTO() {
	if s.done {
		s.rtoDeadline = 0
		return
	}
	rto := s.cfg.RTO.Fixed << s.backoff
	s.rtoIsLow = false
	if s.cfg.Mode == IRN && s.cfg.RTOLow > 0 && s.board.InFlight() < s.cfg.NLow {
		// RTO_low is a designed recovery path, never backed off.
		rto = s.cfg.RTOLow
		s.rtoIsLow = true
	}
	s.rtoDeadline = s.s.Now() + rto
	if !s.rtoPending {
		s.rtoPending = true
		if s.rtoEv == nil {
			s.rtoEv = s.s.NewKindEvent(kindRTOTick, 0, s)
		}
		s.s.Schedule(s.rtoEv, s.rtoDeadline)
	}
}

func (s *Sender) rtoTick() {
	s.rtoPending = false
	if s.done || s.rtoDeadline == 0 {
		return
	}
	if now := s.s.Now(); now < s.rtoDeadline {
		s.rtoPending = true
		s.s.Schedule(s.rtoEv, s.rtoDeadline)
		return
	}
	s.onRTO()
}

func (s *Sender) onRTO() {
	if s.done {
		return
	}
	if s.board.Una >= s.board.Nxt && s.board.Nxt >= s.n {
		return
	}
	if s.rtoIsLow {
		// IRN's low timeout is a designed recovery path for tiny
		// outstanding windows (Mittal et al.), not a stall.
		s.rec.RTOLowFires++
	} else {
		s.rec.Timeouts++
		s.retries++
		if s.cfg.RTO.MaxRetries > 0 && s.retries >= s.cfg.RTO.MaxRetries {
			s.abort()
			return
		}
		// RoCE static timers do not back off by default (IB verbs);
		// MaxBackoffShift opts a QP into exponential backoff.
		if s.backoff < s.cfg.RTO.MaxBackoffShift {
			s.backoff++
		}
	}
	if s.cfg.Mode == GBN {
		s.board.Rewind(s.board.Una)
		s.roundStart = true
	} else {
		s.board.MarkAllLost()
		if s.tltWin != nil {
			s.tltWin.Reset()
		}
		s.roundStart = true
	}
	s.armRTO()
	s.schedule()
}

func (s *Sender) complete() {
	if s.done {
		return
	}
	s.done = true
	s.rtoDeadline = 0
	for _, t := range []sim.Timer{s.sendTimer, s.rpTimer, s.alphaTimer} {
		t.Stop()
	}
	if s.onDone != nil {
		s.onDone()
	}
}

// abort tears the QP down after RTO.MaxRetries consecutive timeouts with
// no progress: IB retry-count exhaustion surfaces as a completion error
// rather than retrying into a black hole forever.
func (s *Sender) abort() {
	if s.done {
		return
	}
	s.done = true
	s.aborted = true
	s.rtoDeadline = 0
	for _, t := range []sim.Timer{s.sendTimer, s.rpTimer, s.alphaTimer} {
		t.Stop()
	}
	if s.tltWin != nil {
		s.tltWin.Reset()
	}
	if s.OnAbort != nil {
		s.OnAbort()
	}
}

// Aborted reports whether the QP gave up (for tests).
func (s *Sender) Aborted() bool { return s.aborted }
