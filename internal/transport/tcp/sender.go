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

// segment is one MSS-aligned unit of the send scoreboard.
type segment struct {
	start, end int64
	sacked     bool
	lost       bool
	retx       bool // a retransmission of this (lost) segment is in flight
	sampled    bool // delivery-time sample taken
	everSent   bool
	firstSent  sim.Time
	lastSent   sim.Time
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

	// Stream state.
	appLimit int64 // bytes the application has written so far
	closed   bool  // application finished writing
	sndUna   int64
	sndNxt   int64

	segs   []segment
	head   int          // index of first segment not fully cum-acked
	boards *Scoreboards // where segs comes from and goes back to; nil: kept across Reset

	// Aggregate scoreboard counters for O(1) pipe computation.
	sackedB   int64 // sacked bytes in [sndUna, sndNxt)
	lostB     int64 // lost, unsacked bytes
	lostRetxB int64 // subset of lostB whose retransmission is in flight

	// Congestion control.
	cwnd          float64
	ssthresh      float64
	inRecovery    bool
	recoveryPoint int64
	lostEdge      int64 // bytes below this and unsacked are lost (dupthresh=1)
	edgeApplied   int64 // lostEdge already folded into segment flags up to here

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
// the scoreboard's (emptied) backing array, or the list it comes from,
// carry over. It is the only place sender state is initialised, so a
// recycled sender cannot differ from a fresh one — whichever run, config
// or network it served before. Resetting a sender that is mid-flow, or
// whose tick events are still queued, is a caller bug and panics.
func (s *Sender) Reset(host *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder, onDone func()) {
	s.mustBeIdle()
	cfg.TLT.Flow = flow.ID
	// The estimator and the TLT machine live in the sender by value; their
	// constructors inline, so the dereferences allocate nothing.
	*s = Sender{
		s: host.Sim(), host: host, flow: flow, cfg: cfg,
		rec: rec, recorder: recorder, onDone: onDone,
		segs:     s.segs[:0],
		boards:   s.boards,
		cwnd:     float64(cfg.InitWindowSegs * cfg.MSS),
		ssthresh: cfg.MaxCwndBytes,
		rtoEst:   *transport.NewRTOEstimator(cfg.RTO),
		rtoEv:    s.rtoEv,
		tlpEv:    s.tlpEv,
		tlt:      *core.NewWindowSender(cfg.TLT),
	}
}

func (s *Sender) mustBeIdle() {
	if s.appLimit > 0 && !s.done {
		panic(fmt.Sprintf("tcp: Reset of sender mid-flow (%d of %d bytes acked)", s.sndUna, s.appLimit))
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
	*s = Sender{segs: s.segs[:0], boards: s.boards, rtoEv: s.rtoEv, tlpEv: s.tlpEv}
}

// ShareScoreboards makes the sender draw its scoreboard backing from b
// for each flow and return it when the flow ends, instead of keeping one
// of its own from flow to flow. Call it on a sender that has not carried
// a flow yet; b must belong to the sender's event loop.
func (s *Sender) ShareScoreboards(b *Scoreboards) { s.boards = b }

// Write appends n bytes to the stream and kicks transmission.
func (s *Sender) Write(n int64) {
	s.appLimit += n
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
func (s *Sender) SndUna() int64 { return s.sndUna }

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
		AckedBytes:        s.sndUna,
		TotalBytes:        s.appLimit,
		OutstandingBytes:  s.sndNxt - s.sndUna,
		LostBytes:         s.lostB,
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

func (s *Sender) pipe() float64 {
	return float64((s.sndNxt - s.sndUna) - s.sackedB - (s.lostB - s.lostRetxB))
}

func (s *Sender) outstanding() bool { return s.sndUna < s.sndNxt }
func (s *Sender) unsent() bool      { return s.sndNxt < s.appLimit }

// segAt returns the index of the segment containing seq, or -1.
func (s *Sender) segAt(seq int64) int {
	lo, hi := s.head, len(s.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.segs[mid].end <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.segs) && s.segs[lo].start <= seq && seq < s.segs[lo].end {
		return lo
	}
	return -1
}

func (s *Sender) markSacked(i int) {
	seg := &s.segs[i]
	if seg.sacked {
		return
	}
	n := seg.end - seg.start
	seg.sacked = true
	s.sackedB += n
	if seg.lost {
		seg.lost = false
		s.lostB -= n
		if seg.retx {
			seg.retx = false
			s.lostRetxB -= n
		}
	}
	s.sampleDelivery(seg)
}

func (s *Sender) markLost(i int) {
	seg := &s.segs[i]
	if seg.sacked || seg.lost {
		return
	}
	seg.lost = true
	s.lostB += seg.end - seg.start
}

func (s *Sender) clearRetx(i int) {
	seg := &s.segs[i]
	if seg.retx {
		seg.retx = false
		if seg.lost {
			s.lostRetxB -= seg.end - seg.start
		}
	}
}

func (s *Sender) sampleDelivery(seg *segment) {
	if seg.sampled || s.recorder == nil || s.recorder.DeliverySamples == nil {
		return
	}
	seg.sampled = true
	s.recorder.DeliverySamples.Add((s.s.Now() - seg.firstSent).Seconds())
}

// advanceUna applies a cumulative ACK.
func (s *Sender) advanceUna(ack int64) {
	for s.head < len(s.segs) && s.segs[s.head].end <= ack {
		seg := &s.segs[s.head]
		n := seg.end - seg.start
		if seg.sacked {
			s.sackedB -= n
		}
		if seg.lost {
			s.lostB -= n
			if seg.retx {
				s.lostRetxB -= n
			}
		}
		s.sampleDelivery(seg)
		s.head++
	}
	// Partial ACK within a segment (1-byte clock probes advance the
	// stream by single bytes): shrink the head segment.
	if s.head < len(s.segs) {
		seg := &s.segs[s.head]
		if seg.start < ack {
			n := ack - seg.start
			if seg.sacked {
				s.sackedB -= n
			}
			if seg.lost {
				s.lostB -= n
				if seg.retx {
					s.lostRetxB -= n
				}
			}
			seg.start = ack
		}
	}
	s.sndUna = ack
	if s.lostEdge < ack {
		s.lostEdge = ack
	}
	// Compact once the acked prefix is half the slice: each move is paid
	// for by the segments acked since the last one, and the backing array
	// stays proportional to the peak window, not to the flow.
	if s.head*2 >= len(s.segs) {
		s.segs = append(s.segs[:0], s.segs[s.head:]...)
		s.head = 0
	}
}

func (s *Sender) applySack(blocks []packet.SackBlock) {
	for _, b := range blocks {
		if b.End <= s.sndUna {
			continue
		}
		i := s.segAt(max64(b.Start, s.sndUna))
		if i < 0 {
			continue
		}
		for ; i < len(s.segs) && s.segs[i].end <= b.End; i++ {
			s.markSacked(i)
		}
		if b.End > s.lostEdge && b.Start > s.sndUna {
			// bytes below the start of a sacked range are suspect;
			// with dupthresh=1 they are lost.
			if b.Start > s.lostEdge {
				s.lostEdge = b.Start
			}
		}
	}
}

// applyLostEdge marks unsacked segments below lostEdge lost. Segments
// below edgeApplied are already settled (lost or sacked), so only the
// newly exposed span is scanned.
func (s *Sender) applyLostEdge() {
	if s.lostEdge <= s.edgeApplied {
		return
	}
	i := s.head
	if s.edgeApplied > s.sndUna {
		if j := s.segAt(s.edgeApplied); j >= 0 {
			i = j
		}
	}
	for ; i < len(s.segs) && s.segs[i].start < s.lostEdge; i++ {
		s.markLost(i)
	}
	s.edgeApplied = s.lostEdge
}

// rackMark applies TLT's guaranteed loss detection: the echo of an
// important packet sent at impSentAt proves the path round-tripped, so
// anything transmitted strictly earlier and still unacknowledged is lost;
// retransmissions sent before it that remain unacked were lost again and
// are invalidated so the rescue carries a full MSS. In the 1-byte
// ablation (Fig. 17) the rescue must ride the clock payload alone, so
// stale retransmissions are left in place and the stream crawls forward
// one byte per RTT — the pathology of Figure 3(b).
func (s *Sender) rackMark(impSentAt sim.Time) {
	rescueRetx := s.tlt.Mode() != core.ClockOneByte
	for i := s.head; i < len(s.segs); i++ {
		seg := &s.segs[i]
		if !seg.everSent || seg.sacked {
			continue
		}
		if seg.lastSent < impSentAt {
			if seg.retx && rescueRetx {
				s.clearRetx(i)
			}
			if !seg.retx {
				s.markLost(i)
			}
		}
	}
}

func (s *Sender) maybeEnterRecovery() {
	if s.inRecovery || s.lostB == 0 {
		return
	}
	s.inRecovery = true
	s.recoveryPoint = s.sndNxt
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
	stale := false
	var impSentAt sim.Time
	rackOK := false
	if s.tlt.Enabled() {
		switch pkt.Mark {
		case packet.ImportantEcho:
			impSentAt, rackOK = s.tlt.OnEcho()
		case packet.ImportantClockEcho:
			stale = core.StaleClockEcho(pkt.Mark, pkt.Ack, s.sndUna)
			impSentAt, rackOK = s.tlt.OnEcho()
		}
	}

	newly := int64(0)
	if pkt.Ack > s.sndUna {
		newly = pkt.Ack - s.sndUna
		s.advanceUna(pkt.Ack)
	}
	s.applySack(pkt.Sack())
	if rackOK {
		s.rackMark(impSentAt)
	}
	s.applyLostEdge()
	s.maybeEnterRecovery()

	if !stale {
		s.ccOnAck(pkt, newly)
	}

	if s.inRecovery && s.sndUna >= s.recoveryPoint {
		s.inRecovery = false
	}
	if newly > 0 {
		s.backoff = 0
		s.retries = 0 // Karn: forward progress resets the give-up counter
		s.tlpFired = false
	}

	if s.closed && s.sndUna >= s.appLimit {
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
		if s.sndUna >= s.nextAlphaSeq && s.totAcked > 0 {
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
			s.nextAlphaSeq = s.sndNxt
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

// pushSeg appends a segment to the scoreboard and returns its index. A
// sender with no backing array starts at the initial window, which any
// flow may fill at once, instead of doubling its way up from one.
func (s *Sender) pushSeg(seg segment) int {
	if len(s.segs) == cap(s.segs) {
		s.segs = s.boards.Grow(s.segs, s.cfg.InitWindowSegs)
	}
	s.segs = append(s.segs, seg)
	return len(s.segs) - 1
}

// nextRetxIdx returns the first lost segment without an in-flight
// retransmission, or -1.
func (s *Sender) nextRetxIdx() int {
	if s.lostB <= s.lostRetxB {
		return -1
	}
	for i := s.head; i < len(s.segs); i++ {
		seg := &s.segs[i]
		if seg.lost && !seg.retx {
			return i
		}
	}
	return -1
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
		if i := s.nextRetxIdx(); i >= 0 {
			more := s.moreAfterRetx(i)
			s.transmitSeg(i, true, s.tlt.TakeMark(!more, s.s.Now()))
			continue
		}
		if !s.unsent() {
			return
		}
		n := s.appLimit - s.sndNxt
		if n > int64(s.cfg.MSS) {
			n = int64(s.cfg.MSS)
		}
		i := s.pushSeg(segment{start: s.sndNxt, end: s.sndNxt + n})
		s.sndNxt += n
		more := s.unsent() && s.pipe()+float64(n) < s.cwnd
		s.transmitSeg(i, false, s.tlt.TakeMark(!more, s.s.Now()))
	}
}

// moreAfterRetx reports whether further transmission could follow the
// retransmission of segment i within the current window.
func (s *Sender) moreAfterRetx(i int) bool {
	n := s.segs[i].end - s.segs[i].start
	if s.pipe()+float64(n) >= s.cwnd {
		return false
	}
	// Another retransmission remains if the lost-without-retx byte count
	// exceeds this segment, or fresh data is waiting.
	return s.unsent() || s.lostB-s.lostRetxB > n
}

// transmitSeg puts segment i on the wire.
func (s *Sender) transmitSeg(i int, isRetx bool, mark packet.Mark) {
	seg := &s.segs[i]
	now := s.s.Now()
	if !seg.everSent {
		seg.everSent = true
		seg.firstSent = now
	}
	seg.lastSent = now
	if isRetx {
		if seg.lost && !seg.retx {
			seg.retx = true
			s.lostRetxB += seg.end - seg.start
		}
		s.rec.RetxPackets++
	}
	pkt := s.host.NewPacket()
	pkt.Flow, pkt.Dst = s.flow.ID, s.flow.Dst
	pkt.Type = packet.Data
	pkt.TC = s.cfg.TrafficClass
	pkt.Seq, pkt.Len = seg.start, int(seg.end-seg.start)
	pkt.Mark = mark
	pkt.ECT = s.cfg.ECN
	if !isRetx {
		pkt.SentAt = now // Karn: no RTT sample from retransmissions
	}
	pkt.IsRetx = isRetx
	s.accountSend(pkt)
	s.host.Send(pkt)
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
	if i := s.nextRetxIdx(); i >= 0 && mode != core.ClockOneByte {
		s.rec.ClockSends++
		s.rec.ClockBytes += s.segs[i].end - s.segs[i].start
		s.transmitSeg(i, true, s.tlt.TakeClockMark(now))
		return
	}

	if mode == core.ClockFullMTU {
		// Redundantly retransmit the first unacked segment in full.
		if i := s.firstUnackedIdx(); i >= 0 {
			s.rec.ClockSends++
			s.rec.ClockBytes += s.segs[i].end - s.segs[i].start
			s.transmitSeg(i, true, s.tlt.TakeClockMark(now))
			return
		}
	}

	// Default: a 1-byte probe of the first unacked byte, minimizing
	// footprint while keeping the ACK clock alive.
	if !s.outstanding() && !s.unsent() {
		return
	}
	seq := s.sndUna
	if seq >= s.sndNxt {
		// Nothing outstanding but data unsent (window collapsed to
		// zero is impossible with cwnd>=1 MSS, but guard anyway):
		// send 1 byte of new data.
		if !s.unsent() {
			return
		}
		i := s.pushSeg(segment{start: s.sndNxt, end: s.sndNxt + 1})
		s.sndNxt++
		s.rec.ClockSends++
		s.rec.ClockBytes++
		s.transmitSeg(i, false, s.tlt.TakeClockMark(now))
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

func (s *Sender) firstUnackedIdx() int {
	for i := s.head; i < len(s.segs); i++ {
		if !s.segs[i].sacked {
			return i
		}
	}
	return -1
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
		n := s.appLimit - s.sndNxt
		if n > int64(s.cfg.MSS) {
			n = int64(s.cfg.MSS)
		}
		i := s.pushSeg(segment{start: s.sndNxt, end: s.sndNxt + n})
		s.sndNxt += n
		s.transmitSeg(i, false, s.tlt.TakeMark(false, s.s.Now()))
	} else if i := s.firstUnackedIdx(); i >= 0 {
		// Retransmit the last unsacked segment (TLP probes the tail).
		last := i
		for j := i; j < len(s.segs); j++ {
			if !s.segs[j].sacked {
				last = j
			}
		}
		s.transmitSeg(last, true, packet.Unimportant)
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
	s.lostEdge = s.sndNxt
	s.edgeApplied = s.sndNxt
	for i := s.head; i < len(s.segs); i++ {
		s.clearRetx(i)
		s.markLost(i)
	}
	half := s.pipe() / 2
	if half < 2*float64(s.cfg.MSS) {
		half = 2 * float64(s.cfg.MSS)
	}
	s.ssthresh = half
	s.cwnd = float64(s.cfg.MSS)
	s.inRecovery = true
	s.recoveryPoint = s.sndNxt
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
// Nothing reads the scoreboard after done, so its backing goes back to
// the shared list for the next flow that starts; a sender without one
// keeps it for its own next flow.
func (s *Sender) retire() {
	s.done = true
	if s.boards != nil {
		s.boards.Give(s.segs)
		s.segs, s.head = nil, 0
	}
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
