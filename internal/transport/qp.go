package transport

import (
	"fmt"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// kindRTOTick fires a sender's lazy RTO tick through a static handler on
// its preallocated event; kindStart is Launch's one-shot start.
var (
	kindRTOTick = sim.NewKind(func(_, arg any) { arg.(interface{ rtoTick() }).rtoTick() })
	kindStart   = sim.NewKind(func(_, arg any) { arg.(Law).Start() })
)

// Law is the congestion law a Sender is embedded in — tcp's NewReno and
// DCTCP, DCQCN's rate, HPCC's window: the places where the reliability
// core calls back into it.
type Law interface {
	// Start begins transmission, at the flow's start time.
	Start()
	// Timeout returns the retransmission timeout to arm, before backoff;
	// zero disarms the timer. A low timeout (IRN's RTO_low) is never
	// backed off, and its expiry is not counted as a timeout.
	Timeout() (rto sim.Time, low bool)
	// Recover runs when the RTO fired and the flow goes on (the timeout
	// is already counted): mark or rewind the board, re-arm, resend — in
	// the law's own order, which the event sequence depends on.
	Recover()
	// Quiesce stops the law's own timers: the flow completed or aborted.
	Quiesce()
	// Describe names the transport and adds the law's state to a stall
	// snapshot.
	Describe(*FlowStatus)
}

// Sender is the reliability core of every sender in the tree: the
// scoreboard, the lazy RTO with retry, backoff and abort, ACK intake with
// TLT's guaranteed loss detection, transmit accounting, the important
// ACK-clock and the end of the flow. What to send next and when is the
// law's: tcp.Sender, dcqcn.Sender and hpcc.Sender embed a Sender and
// drive it. X is what its board keeps of a range's first send.
type Sender[X stamp[X]] struct {
	S     *sim.Sim
	Board Board[X]
	Rec   *stats.FlowRecord

	// Win is the window-based TLT marking machine (§5.1) of tcp, IRN and
	// HPCC. Its zero value never marks: rate-marked and TLT-less queue
	// pairs leave it alone.
	Win core.WindowSender

	host *fabric.Host
	flow *Flow
	law  Law
	cfg  *RTOConfig // the law's own copy; read only

	// Where an abort is booked; nil books nothing.
	recorder *stats.Recorder
	onDone   func(*stats.FlowRecord)

	timer Deadline // the RTO

	// Packed into two words, so hpcc.Sender fits its allocation size class.
	mss      int32
	retries  int32 // consecutive full-RTO rounds without forward progress
	backoff  uint8 // exponential backoff shift, capped at cfg.MaxBackoffShift
	rtoIsLow bool  // armed with a low timeout
	done     bool
	aborted  bool
}

type (
	// QPSender is the RoCE queue pairs' core, over packet sequence numbers.
	QPSender = Sender[noStamp]
	// ByteSender is tcp's core, over the bytes of its stream.
	ByteSender = Sender[firstSent]
)

// Packets returns how many mss-sized packets carry size bytes; an empty
// message still takes one.
func Packets(size int64, mss int) int64 {
	return max(1, (size+int64(mss)-1)/int64(mss))
}

// Reset sets the core up for flow under law, segmented into mss-byte
// packets, with the timeouts of rto; Open says where an abort is booked.
// It is the only place sender state is initialised: everything starts
// from zero or from the arguments, and only the tick event and the
// board's emptied backing (or the list it comes from) carry over, so a
// recycled sender cannot differ from a new one. A sender that is
// mid-flow, or whose tick is still queued, panics.
func (c *Sender[X]) Reset(law Law, host *fabric.Host, flow *Flow, mss int, rto *RTOConfig, rec *stats.FlowRecord) {
	c.mustBeOver()
	if c.timer.Pending() {
		panic("transport: Reset of sender with its RTO tick still scheduled")
	}
	n := Packets(flow.Size, mss)
	c.Board.Reset(n, int(min(n, 64)), false)
	*c = Sender[X]{
		S: host.Sim(), Board: c.Board, Rec: rec,
		host: host, flow: flow, law: law, cfg: rto, mss: int32(mss),
		timer: c.timer.Rest(),
	}
}

func (c *Sender[X]) mustBeOver() {
	if c.Board.N > 0 && !c.done {
		panic(fmt.Sprintf("transport: Reset of sender mid-flow (%d of %d acked)", c.Board.Una, c.Board.N))
	}
}

// Clear zeroes a finished sender down to what Reset carries over, so one
// parked between runs pins nothing of the run it served. Its simulator is
// dead by then; a tick it left queued goes with it. It panics on a sender
// that is mid-flow.
func (c *Sender[X]) Clear() {
	c.mustBeOver()
	if c.timer.Pending() {
		c.timer.ev = nil
	}
	c.Board.Reset(0, 0, false)
	*c = Sender[X]{Board: c.Board, timer: c.timer.Rest()}
}

// Done reports sender-side completion, successful or not.
func (c *Sender[X]) Done() bool { return c.done }

// Aborted reports whether the sender gave up.
func (c *Sender[X]) Aborted() bool { return c.aborted }

// Retries and Backoff return the consecutive timeouts without progress
// and the backoff shift (for tests).
func (c *Sender[X]) Retries() int { return int(c.retries) }
func (c *Sender[X]) Backoff() int { return int(c.backoff) }

// Launch has the law Start at the flow's start time.
func (c *Sender[X]) Launch() { c.S.PostKind(c.flow.Start, kindStart, 0, c.law) }

// Flow and Recorder return the flow and the recorder its abort goes to.
func (c *Sender[X]) Flow() *Flow               { return c.flow }
func (c *Sender[X]) Recorder() *stats.Recorder { return c.recorder }

func (c *Sender[X]) wire(recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*fabric.Host, *Flow) {
	c.recorder, c.onDone = recorder, onDone
	return c.host, c.flow
}

// ShareBoards has the sender's boards take their backing arrays from mem
// and give them back to it (Board.Share).
func (c *Sender[X]) ShareBoards(mem *Backings[Entry[X]]) { c.Board.Share(mem) }

// FlowStatus implements StatusReporter for stall reports.
func (c *Sender[X]) FlowStatus() FlowStatus {
	mss := int64(c.mss)
	fs := FlowStatus{
		Flow:              c.flow.ID,
		State:             "open",
		Done:              c.done,
		Aborted:           c.aborted,
		AckedBytes:        min(c.Board.Una*mss, c.flow.Size),
		TotalBytes:        c.flow.Size,
		OutstandingBytes:  c.Board.InFlight() * mss,
		LostBytes:         c.Board.PendingRetx() * mss,
		ImportantInFlight: c.Win.InFlight(),
		RTOArmed:          c.timer.At > 0,
		RTODeadline:       c.timer.At,
	}
	switch {
	case c.aborted:
		fs.State = "aborted"
	case c.done:
		fs.State = "done"
	case c.Board.HasLoss():
		fs.State = "loss-recovery"
	}
	c.law.Describe(&fs)
	return fs
}

// Data returns a data packet of the flow carrying n bytes at seq, marked
// mark, for the law to finish and Send.
func (c *Sender[X]) Data(seq int64, n int, mark packet.Mark) *packet.Packet {
	pkt := c.host.NewPacket()
	pkt.Flow, pkt.Dst = c.flow.ID, c.flow.Dst
	pkt.Type = packet.Data
	pkt.Seq, pkt.Len = seq, n
	pkt.Mark = mark
	return pkt
}

// Send books data packet pkt on the flow record, puts it on the wire and
// returns its wire size.
func (c *Sender[X]) Send(pkt *packet.Packet) int64 {
	c.Rec.SentPackets++
	size := int64(pkt.WireSize())
	c.Rec.TotalBytes += size
	if pkt.Important() {
		c.Rec.ImpPackets++
		c.Rec.ImpBytes += size
	}
	c.host.Send(pkt)
	return size
}

// length returns psn's payload bytes: the last packet carries what is left.
func (c *Sender[X]) length(psn int64) int {
	if psn == c.Board.N-1 {
		return int(c.flow.Size - psn*int64(c.mss))
	}
	return int(c.mss)
}

// Transmit puts packet psn of a queue pair's message on the wire carrying
// mark, books it, and returns its wire size.
func (c *Sender[X]) Transmit(psn int64, isRetx bool, mark packet.Mark) int64 {
	now := c.S.Now()
	pkt := c.Data(psn, c.length(psn), mark)
	pkt.ECT = true
	pkt.SentAt = now
	pkt.IsRetx = isRetx
	pkt.LastPkt = psn == c.Board.N-1
	c.Board.OnSent(psn, isRetx, now)
	if isRetx {
		c.Rec.RetxPackets++
	}
	return c.Send(pkt)
}

// MoreAfter reports whether another transmission could immediately follow
// psn: another pending retransmission (when isRetx, psn is the board's
// NextRetx, so any other lies above it) or, when fresh says the law would
// allow one, unsent data right behind it. TLT marks the packet after which
// nothing follows (the burst tail).
func (c *Sender[X]) MoreAfter(psn int64, isRetx, fresh bool) bool {
	if isRetx && c.Board.PendingRetx() > 1 {
		return true
	}
	return fresh && psn+1 < c.Board.N && psn+1 >= c.Board.Nxt
}

// ImportantClock keeps one important packet of a queue pair in flight
// when the law cannot send: it retransmits the first lost packet, or
// duplicates the first unsacked one, past window and pacing. It returns
// the wire size sent, 0 if nothing is outstanding.
func (c *Sender[X]) ImportantClock() int64 {
	psn := c.Board.NextRetx()
	isRetx := psn >= 0
	if !isRetx {
		if psn = c.Board.FirstUnsacked(); psn < 0 {
			return 0
		}
		c.Rec.RetxPackets++ // redundant duplicate of an outstanding PSN
	}
	c.Rec.ClockSends++
	c.Rec.ClockBytes += int64(c.length(psn))
	return c.Transmit(psn, isRetx, c.Win.TakeClockMark(c.S.Now()))
}

// Intake folds one ACK into the scoreboard: cumulative point, SACK blocks
// and TLT's guaranteed loss detection — an important echo proves lost
// every unacknowledged packet sent strictly before the important one, as
// lostBefore, if set, does of those sent before it. One RackMark from the
// later of the two serves both; they differ when an echo outlives the RTO
// that presumed its packet lost. Progress resets backoff and retries
// (Karn). newLoss reports that a loss episode began: no packet awaited
// retransmission before the SACK blocks were applied, and one does now.
func (c *Sender[X]) Intake(pkt *packet.Packet, lostBefore sim.Time) (progressed, newLoss bool) {
	switch pkt.Mark {
	case packet.ImportantEcho, packet.ImportantClockEcho:
		if impSentAt, ok := c.Win.OnEcho(); ok {
			lostBefore = max(lostBefore, impSentAt)
		}
	}
	progressed = c.Board.Ack(pkt.Ack)
	hadLoss := c.Board.HasLoss()
	c.Board.Sack(pkt.Sack())
	if lostBefore > 0 {
		c.Board.RackMark(lostBefore)
	}
	if progressed {
		c.backoff, c.retries = 0, 0
	}
	return progressed, !hadLoss && c.Board.HasLoss()
}

// OnAck is a queue pair's ACK intake — or a go-back-N NACK's, which
// acknowledges everything below the PSN it asks for. Every ACK proves its
// data packet round-tripped, so anything sent strictly earlier is lost
// (commercial RoCE NACK semantics). open is false when the ACK completed
// the flow; progress re-arms the RTO.
func (c *Sender[X]) OnAck(pkt *packet.Packet) (open, newLoss bool) {
	progressed, newLoss := c.Intake(pkt, pkt.EchoTS)
	if c.Board.Complete() {
		c.Finish(false)
		return false, newLoss
	}
	if progressed {
		c.ArmRTO()
	}
	return true, newLoss
}

// ArmRTO (re)starts the retransmission timer from now with the law's
// timeout, backed off unless it is a low one.
func (c *Sender[X]) ArmRTO() {
	rto, low := c.law.Timeout()
	if c.done || rto == 0 {
		c.timer.At = 0
		return
	}
	if c.rtoIsLow = low; !low {
		rto <<= c.backoff
	}
	c.timer.Arm(c.S, c.S.Now()+rto, kindRTOTick, c)
}

// StopRTO disarms the timer and takes its tick off the queue, so a
// finished sender is not pinned in memory until its deadline passes.
// Queue pairs let the tick fire as a no-op instead.
func (c *Sender[X]) StopRTO() { c.timer.Stop(c.S) }

func (c *Sender[X]) rtoTick() {
	if !c.timer.Due(c.S) {
		return
	}
	if c.rtoIsLow {
		c.Rec.RTOLowFires++
	} else {
		c.Rec.Timeouts++
		c.retries++
		if c.cfg.MaxRetries > 0 && int(c.retries) >= c.cfg.MaxRetries {
			// Retry-count exhaustion surfaces as a completion error
			// rather than retrying into a black hole forever.
			c.Finish(true)
			return
		}
		if uint(c.backoff) < c.cfg.MaxBackoffShift {
			c.backoff++
		}
	}
	c.law.Recover()
}

// Finish ends the flow: everything acknowledged, or given up. The board's
// backing goes back to its list. An abort is booked here, on the sender's
// shard; completion on the receiver's (see stats.FlowRecord).
func (c *Sender[X]) Finish(aborted bool) {
	c.done, c.aborted = true, aborted
	c.timer.At = 0
	c.law.Quiesce()
	c.Board.Release()
	if aborted {
		c.Win.Reset()
		if c.recorder != nil && !c.Rec.Aborted {
			c.recorder.FlowAborted(c.Rec, c.S.Now())
			if c.onDone != nil {
				c.onDone(c.Rec)
			}
		}
	}
}

// Deadline is a lazy timer on one preallocated event: re-arming it only
// moves At, and the event re-posts itself while the deadline keeps moving
// out, so per-ACK restarts touch neither the queue nor the event node.
// The event's handler must call Due first.
type Deadline struct {
	At     sim.Time   // 0: disarmed
	ev     *sim.Event // created at first arm and kept across Reset
	queued bool       // ev is on the queue
}

// Arm sets the deadline to at, queueing the event — k on arg — unless it
// already is.
func (d *Deadline) Arm(s *sim.Sim, at sim.Time, k sim.EventKind, arg any) {
	d.At = at
	if !d.queued {
		if d.ev == nil {
			d.ev = s.NewKindEvent(k, 0, arg)
		}
		d.queued = true
		s.Schedule(d.ev, at)
	}
}

// Due reports whether an armed deadline has come, and re-posts the event
// for one that has moved out.
func (d *Deadline) Due(s *sim.Sim) bool {
	if d.queued = false; d.At == 0 {
		return false
	}
	if s.Now() < d.At {
		d.queued = true
		s.Schedule(d.ev, d.At)
		return false
	}
	return true
}

// Stop disarms the deadline and takes its event off the queue.
func (d *Deadline) Stop(s *sim.Sim) {
	d.At, d.queued = 0, false
	s.Cancel(d.ev)
}

// Pending reports whether the event is queued.
func (d *Deadline) Pending() bool { return d.queued }

// Rest returns the deadline disarmed, keeping its event for the next flow.
func (d *Deadline) Rest() Deadline { return Deadline{ev: d.ev} }

// Receiver is the responder core of every family: the range set, the
// cumulative point in the flow's unit (PSNs, tcp's bytes), SACK blocks,
// TLT's echo of each data packet's mark and the flow's completion. On its
// own it is a selective RoCE queue pair's responder (DCQCN+SACK, IRN,
// HPCC): every ACK echoes the data's send time — and for HPCC its INT
// stack. dcqcn.Receiver adds CNPs and go-back-N; tcp.Receiver ACKs bytes
// with tcp's own fields through Accept and Reply.
type Receiver struct {
	// Cum is the in-order delivery point: everything below it has arrived.
	Cum int64
	// OnComplete fires once when the full message has arrived. May be nil.
	OnComplete func()

	host *fabric.Host
	flow *Flow
	rec  *stats.FlowRecord

	// Where Open has the completion booked; nil when wired by hand.
	recorder *stats.Recorder
	onDone   func(*stats.FlowRecord)

	n         int64
	rcv       RangeSet // out-of-order arrivals above Cum
	win       core.WindowReceiver
	ctrl      packet.Mark // mark of a pure control packet: important under TLT
	echoINT   bool
	completed bool
}

// Reset sets the receiver up for flow, n units long: the only place its
// state is initialised; only the range set's emptied backing carries
// over. A stream with no end (n = 0: tcp's persistent connections) starts
// completed, so it never books one. window turns on the window-based TLT
// echo (tcp, IRN, HPCC), echoINT the INT echo (HPCC). There is no
// mid-flow check: a receiver whose sender aborted never sees its flow end.
func (r *Receiver) Reset(host *fabric.Host, flow *Flow, n int64, rec *stats.FlowRecord, tlt core.Config, window, echoINT bool) {
	r.rcv.Reset()
	*r = Receiver{
		host: host, flow: flow, rec: rec,
		n:         n,
		rcv:       r.rcv,
		ctrl:      core.ControlMark(tlt.Enabled),
		echoINT:   echoINT,
		completed: n == 0,
	}
	if window {
		r.win = *core.NewWindowReceiver(tlt)
	}
}

// Clear zeroes the receiver down to what Reset carries over, so one
// parked between runs pins nothing of the run it served.
func (r *Receiver) Clear() {
	r.rcv.Reset()
	*r = Receiver{rcv: r.rcv}
}

// Delivered returns the units delivered in order so far.
func (r *Receiver) Delivered() int64 { return r.Cum }

func (r *Receiver) wire(recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*fabric.Host, *Flow) {
	r.recorder, r.onDone = recorder, onDone
	return r.host, r.flow
}

// Handle implements fabric.PacketHandler for a queue pair's data path.
func (r *Receiver) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Data {
		return
	}
	ack := r.Accept(pkt, pkt.Seq+1, packet.SackBufBlocks)
	// The echoed send time lets the sender invalidate retransmissions
	// that were themselves lost, RACK-style (commercial RoCE NACKs).
	ack.EchoTS = pkt.SentAt
	if r.echoINT {
		// On the ACK's own extension: pkt's goes back with pkt.
		ack.CopyINTFrom(r.host.Pool(), pkt)
	}
	r.reply(ack)
}

// Accept folds data packet pkt, covering [pkt.Seq, end), into the
// delivery state and returns its ACK — the cumulative point, at most
// blocks SACK blocks, the TLT echo mark — for the caller to finish and
// hand to Reply.
func (r *Receiver) Accept(pkt *packet.Packet, end int64, blocks int) *packet.Packet {
	r.win.OnData(pkt.Mark)
	if end > r.Cum {
		r.rcv.Add(pkt.Seq, end)
		r.Cum = r.rcv.NextUncovered(r.Cum)
		r.rcv.TrimBelow(r.Cum)
	}
	ack := r.control(packet.Ack, r.Cum)
	if !r.rcv.Empty() {
		ack.SetSack(r.rcv.AppendBlocks(ack.SackBuf(r.host.Pool()), blocks))
	}
	if m := r.win.TakeAckMark(); m != packet.Unimportant {
		ack.Mark = m
	}
	return ack
}

// Control sends a payload-free ACK, NACK or CNP carrying ack.
func (r *Receiver) Control(t packet.Type, ack int64) { r.reply(r.control(t, ack)) }

func (r *Receiver) control(t packet.Type, ack int64) *packet.Packet {
	pkt := r.host.NewPacket()
	pkt.Flow, pkt.Dst = r.flow.ID, r.flow.Src
	pkt.Type = t
	pkt.Ack = ack
	pkt.Mark = r.ctrl
	return pkt
}

// reply is a queue pair's Reply: it first books pkt on the receiver-owned
// counters of the flow record (the sender may live on another shard).
func (r *Receiver) reply(pkt *packet.Packet) {
	if r.rec != nil {
		size := int64(pkt.WireSize())
		r.rec.RxTotalBytes += size
		if pkt.Important() {
			r.rec.RxImpPackets++
			r.rec.RxImpBytes += size
		}
	}
	r.Reply(pkt)
}

// Reply sends pkt, then books the flow's completion if the message is
// whole (the ACK saying so is on its way) and it has not been booked.
func (r *Receiver) Reply(pkt *packet.Packet) {
	r.host.Send(pkt)
	if r.Cum >= r.n && !r.completed {
		r.completed = true
		if r.recorder != nil && !r.rec.Done {
			r.recorder.FlowDone(r.rec, r.host.Sim().Now())
			if r.onDone != nil {
				r.onDone(r.rec)
			}
		}
		if r.OnComplete != nil {
			r.OnComplete()
		}
	}
}

// An Endpoint is a sender or a receiver of a family configured by C, on
// one of the cores.
type Endpoint[C any] interface {
	fabric.PacketHandler
	Reset(host *fabric.Host, flow *Flow, cfg C, rec *stats.FlowRecord)
	wire(recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*fabric.Host, *Flow)
}

// Open registers a flow's two ends, each Reset for it, with their hosts
// and has them book on recorder — the abort at the sender, the completion
// at the receiver, each on its own shard — handing the record to onDone.
// A flow can finalize from both sides (an abort racing a completion in
// flight), so onDone callers that must fire once deduplicate themselves.
func Open[C any](snd, rcv Endpoint[C], recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	src, flow := snd.wire(recorder, onDone)
	dst, _ := rcv.wire(recorder, onDone)
	src.Register(flow.ID, snd)
	dst.Register(flow.ID, rcv)
}

// Start is every family's start, allocating nothing but the flow record:
// it Resets snd on src and rcv on dst for flow under cfg with a new record
// on recorder, Opens them, and has the sender start at the flow's start
// time. The endpoints
// are new, or ones whose last flow has finished (a sender's Reset panics
// otherwise); nothing of what they did before shows in the flow they
// carry now.
func Start[C any](snd interface {
	Endpoint[C]
	Launch()
}, rcv Endpoint[C], src, dst *fabric.Host, flow *Flow, cfg C,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	rec := recorder.NewFlowRecord(flow)
	snd.Reset(src, flow, cfg, rec)
	rcv.Reset(dst, flow, cfg, rec)
	Open(snd, rcv, recorder, onDone)
	snd.Launch()
}
