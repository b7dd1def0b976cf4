package transport

import (
	"fmt"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// kindRTOTick drives the lazy RTO tick through a static handler on a
// preallocated per-sender event (no closure boxing per arm); kindQPStart
// is StartQP's one-shot start.
var (
	kindRTOTick = sim.NewKind(func(_, arg any) { arg.(*QPSender).rtoTick() })
	kindQPStart = sim.NewKind(func(_, arg any) { arg.(*QPSender).law.Start() })
)

// qpLaw is the congestion law a QPSender is embedded in: the places where
// the reliability core has to call back into it.
type qpLaw interface {
	// Start begins transmission, at the flow's start time.
	Start()
	// Recover runs when the RTO fired and the flow goes on (the timeout is
	// already counted): mark or rewind the board, re-arm, resend — in the
	// law's own order, which the event sequence depends on.
	Recover()
	// Quiesce stops the law's own timers: the flow completed or aborted.
	Quiesce()
	// Describe names the transport and adds the law's state to a stall
	// snapshot.
	Describe(*FlowStatus)
}

// QPSender is the reliability half of a RoCE queue pair sending one
// message: the packet scoreboard, the static retransmission timer with
// retry, backoff and abort, ACK intake, the packet fill with its
// FlowRecord accounting, and TLT's important ACK-clocking. What to send
// next and when — pacing, windows, rate or window control — is the law's:
// dcqcn.Sender and hpcc.Sender embed a QPSender and drive it.
type QPSender struct {
	S     *sim.Sim
	Board PktBoard
	Rec   *stats.FlowRecord

	// Win is the window-based TLT marking machine (§5.1) of IRN and
	// HPCC. Its zero value never marks: rate-marked and TLT-less queue
	// pairs leave it alone.
	Win core.WindowSender

	// RTOLow, when set, replaces the static timeout while fewer than NLow
	// packets are in flight: IRN's cheap recovery path for tiny
	// outstanding windows (Mittal et al.). It is never backed off, and
	// its expirations are not timeouts. It sits with the timer rather
	// than in dcqcn because ACK progress re-arms from in here.
	RTOLow sim.Time
	NLow   int64

	// OnAbort fires once when the queue pair exhausts RTO.MaxRetries
	// consecutive timeouts without progress (IB retry-count exceeded).
	// May be nil.
	OnAbort func()

	host *fabric.Host
	flow *Flow
	law  qpLaw
	mss  int
	rto  *RTOConfig // the law's own copy; read only

	// Where StartQP has an abort booked; nil on a sender wired by hand.
	recorder *stats.Recorder
	onDone   func(*stats.FlowRecord)

	rtoDeadline sim.Time   // lazy RTO: 0 = disarmed, which an open flow never is
	rtoEv       *sim.Event // tick event, created at first arm and kept across Reset
	backoff     uint       // exponential backoff shift (only if rto.MaxBackoffShift > 0)
	retries     int        // consecutive full-RTO rounds without forward progress
	rtoPending  bool
	rtoIsLow    bool // armed with RTOLow
	done        bool
	aborted     bool
}

// packets returns how many mss-sized packets carry size bytes; an empty
// message still takes one.
func packets(size int64, mss int) int64 {
	return max(1, (size+int64(mss)-1)/int64(mss))
}

// Reset sets the core up for flow, segmented into mss-byte packets, under
// the law that embeds it. It is the only place sender state is
// initialised: everything starts from zero or from the arguments, and only
// the tick event and the board's emptied backing (or the list it comes
// from) carry over, so a recycled queue pair cannot differ from a new one.
// A sender that is mid-flow, or whose tick is still queued, panics.
func (q *QPSender) Reset(law qpLaw, host *fabric.Host, flow *Flow, mss int, rto *RTOConfig, rec *stats.FlowRecord) {
	q.mustBeOver()
	if q.rtoEv != nil && q.rtoEv.Scheduled() {
		panic("transport: Reset of queue pair with its RTO tick still scheduled")
	}
	q.Board.Reset(packets(flow.Size, mss))
	*q = QPSender{
		S: host.Sim(), Board: q.Board, Rec: rec,
		host: host, flow: flow, law: law, mss: mss, rto: rto,
		rtoEv: q.rtoEv,
	}
}

func (q *QPSender) mustBeOver() {
	if q.rtoDeadline != 0 {
		panic(fmt.Sprintf("transport: Reset of queue pair mid-flow (%d of %d packets acked)", q.Board.Una, q.Board.N))
	}
}

// Clear zeroes a finished sender down to what Reset carries over, so one
// parked between runs pins nothing of the run it served. Its simulator is
// dead by then: finish leaves the lazy RTO tick to fire as a no-op rather
// than stop it, a run that ends first leaves it queued for good, and Clear
// lets go of that event. It panics on a sender that is mid-flow.
func (q *QPSender) Clear() {
	q.mustBeOver()
	if q.rtoEv != nil && q.rtoEv.Scheduled() {
		q.rtoEv = nil
	}
	q.Board.Reset(0)
	*q = QPSender{Board: q.Board, rtoEv: q.rtoEv}
}

// ShareBoards makes the sender take its scoreboard's backing from b for
// each flow and return it when the flow ends, instead of keeping its own.
// Call it before the sender's first flow; b belongs to its event loop.
func (q *QPSender) ShareBoards(b *PktBoards) { q.Board.mem = b }

// Done reports sender-side completion, successful or not.
func (q *QPSender) Done() bool { return q.done }

// Aborted reports whether the queue pair gave up (for tests).
func (q *QPSender) Aborted() bool { return q.aborted }

// Retries returns the consecutive timeouts without progress (for tests).
func (q *QPSender) Retries() int { return q.retries }

func (q *QPSender) sender() *QPSender { return q }

// FlowStatus implements StatusReporter for stall reports.
func (q *QPSender) FlowStatus() FlowStatus {
	mss := int64(q.mss)
	fs := FlowStatus{
		Flow:              q.flow.ID,
		State:             "open",
		Done:              q.done,
		Aborted:           q.aborted,
		AckedBytes:        min(q.Board.Una*mss, q.flow.Size),
		TotalBytes:        q.flow.Size,
		OutstandingBytes:  q.Board.InFlight() * mss,
		LostBytes:         q.Board.PendingRetx() * mss,
		ImportantInFlight: q.Win.InFlight(),
		RTOArmed:          q.rtoDeadline > 0,
		RTODeadline:       q.rtoDeadline,
	}
	switch {
	case q.aborted:
		fs.State = "aborted"
	case q.done:
		fs.State = "done"
	case q.Board.HasLoss():
		fs.State = "loss-recovery"
	}
	q.law.Describe(&fs)
	return fs
}

// length returns psn's payload bytes: the last packet carries what is left.
func (q *QPSender) length(psn int64) int {
	if psn == q.Board.N-1 {
		return int(q.flow.Size - psn*int64(q.mss))
	}
	return q.mss
}

// Transmit puts psn on the wire carrying mark, books it, and returns its
// wire size.
func (q *QPSender) Transmit(psn int64, isRetx bool, mark packet.Mark) int64 {
	now := q.S.Now()
	pkt := q.host.NewPacket()
	pkt.Flow, pkt.Dst = q.flow.ID, q.flow.Dst
	pkt.Type = packet.Data
	pkt.Seq, pkt.Len = psn, q.length(psn)
	pkt.Mark = mark
	pkt.ECT = true
	pkt.SentAt = now
	pkt.IsRetx = isRetx
	pkt.LastPkt = psn == q.Board.N-1
	q.Board.OnSent(psn, isRetx, now)
	if isRetx {
		q.Rec.RetxPackets++
	}
	q.Rec.SentPackets++
	size := int64(pkt.WireSize())
	q.Rec.TotalBytes += size
	if pkt.Important() {
		q.Rec.ImpPackets++
		q.Rec.ImpBytes += size
	}
	q.host.Send(pkt)
	return size
}

// MoreAfter reports whether another transmission could immediately follow
// psn: a pending retransmission above it or, when fresh says the law would
// allow one, unsent data right behind it. TLT marks the packet after which
// nothing follows (the burst tail).
func (q *QPSender) MoreAfter(psn int64, isRetx, fresh bool) bool {
	if isRetx {
		for p := psn + 1; p < q.Board.Nxt; p++ {
			if st := q.Board.State(p); st.Lost && !st.Retx {
				return true
			}
		}
	}
	return fresh && psn+1 < q.Board.N && psn+1 >= q.Board.Nxt
}

// ImportantClock keeps one important packet in flight when the law cannot
// send: it retransmits the first lost packet — or duplicates the first
// unsacked one — at once, marked ImportantClockData, bypassing window and
// pacing. It returns the wire size sent, 0 if nothing is outstanding.
func (q *QPSender) ImportantClock() int64 {
	psn := q.Board.NextRetx()
	isRetx := psn >= 0
	if !isRetx {
		if psn = q.Board.FirstUnsacked(); psn < 0 {
			return 0
		}
		q.Rec.RetxPackets++ // redundant duplicate of an outstanding PSN
	}
	q.Rec.ClockSends++
	q.Rec.ClockBytes += int64(q.length(psn))
	return q.Transmit(psn, isRetx, q.Win.TakeClockMark(q.S.Now()))
}

// OnAck folds one ACK into the scoreboard — or a go-back-N NACK, which
// acknowledges everything below the PSN it asks for. open is false when
// that completed the flow. newLoss reports the start of a loss episode:
// no packet awaited retransmission before this ACK's selective
// information was applied, and one does now.
func (q *QPSender) OnAck(pkt *packet.Packet) (open, newLoss bool) {
	// Every ACK proves its data packet round-tripped: anything sent
	// strictly earlier and still unacknowledged — including stale
	// retransmissions — is lost (commercial RoCE NACK semantics), and an
	// important echo proves the same of the important packet in flight
	// (TLT's guaranteed loss detection). Marking is monotone in the time
	// scanned from, so one scan from the later of the two serves both.
	// They differ when an echo outlives the RTO that presumed its packet
	// lost: the machine then holds the send time of a later one.
	lostBefore := pkt.EchoTS
	switch pkt.Mark {
	case packet.ImportantEcho, packet.ImportantClockEcho:
		if impSentAt, ok := q.Win.OnEcho(); ok {
			lostBefore = max(lostBefore, impSentAt)
		}
	}
	progressed := q.Board.Ack(pkt.Ack)
	hadLoss := q.Board.HasLoss()
	q.Board.Sack(pkt.Sack())
	if lostBefore > 0 {
		q.Board.RackMark(lostBefore)
	}
	q.Board.ApplyLostEdge()
	newLoss = !hadLoss && q.Board.HasLoss()
	if q.Board.Complete() {
		q.finish(false)
		return false, newLoss
	}
	if progressed {
		q.backoff = 0
		q.retries = 0 // Karn: forward progress resets the give-up counter
		q.ArmRTO()
	}
	return true, newLoss
}

// ArmRTO (re)starts the retransmission timer from now. The deadline is
// lazy: one tick event stays queued and re-posts itself while the
// deadline keeps moving out.
func (q *QPSender) ArmRTO() {
	rto := q.rto.Fixed << q.backoff
	q.rtoIsLow = q.RTOLow > 0 && q.Board.InFlight() < q.NLow
	if q.rtoIsLow {
		rto = q.RTOLow
	}
	q.rtoDeadline = q.S.Now() + rto
	if !q.rtoPending {
		q.rtoPending = true
		if q.rtoEv == nil {
			q.rtoEv = q.S.NewKindEvent(kindRTOTick, 0, q)
		}
		q.S.Schedule(q.rtoEv, q.rtoDeadline)
	}
}

func (q *QPSender) rtoTick() {
	q.rtoPending = false
	if q.done {
		return
	}
	if q.S.Now() < q.rtoDeadline {
		q.rtoPending = true
		q.S.Schedule(q.rtoEv, q.rtoDeadline)
		return
	}
	if q.rtoIsLow {
		q.Rec.RTOLowFires++
	} else {
		q.Rec.Timeouts++
		q.retries++
		if q.rto.MaxRetries > 0 && q.retries >= q.rto.MaxRetries {
			// IB retry-count exhaustion surfaces as a completion error
			// rather than retrying into a black hole forever.
			q.finish(true)
			return
		}
		// RoCE static timers do not back off by default (IB verbs);
		// MaxBackoffShift opts a QP into exponential backoff.
		if q.backoff < q.rto.MaxBackoffShift {
			q.backoff++
		}
	}
	q.law.Recover()
}

// finish ends the flow: everything acknowledged, or given up.
func (q *QPSender) finish(aborted bool) {
	q.done, q.aborted = true, aborted
	q.rtoDeadline = 0
	q.law.Quiesce()
	q.Board.release()
	if aborted {
		q.Win.Reset()
		// The abort is booked on the sender's shard, completion on the
		// receiver's; each touches only its own side of the record (see
		// stats.FlowRecord).
		if q.recorder != nil && !q.Rec.Aborted {
			q.recorder.FlowAborted(q.Rec, q.S.Now())
			if q.onDone != nil {
				q.onDone(q.Rec)
			}
		}
		if q.OnAbort != nil {
			q.OnAbort()
		}
	}
}

// QPReceiver is the responder of a selectively acknowledging RoCE queue
// pair (DCQCN+SACK, IRN, HPCC): it ACKs every data packet with the
// cumulative point, SACK blocks and the packet's echoed send time — and,
// for HPCC, its INT stack — and detects message completion. It is HPCC's
// receiver as it stands; dcqcn.Receiver embeds it and adds CNPs and the
// go-back-N responder.
type QPReceiver struct {
	// Cum is the in-order delivery point: every PSN below it has arrived.
	Cum int64
	// OnComplete fires once when the full message has arrived. May be nil.
	OnComplete func()

	host *fabric.Host
	flow *Flow
	rec  *stats.FlowRecord

	// Where StartQP has the completion booked; nil when wired by hand.
	recorder *stats.Recorder
	onDone   func(*stats.FlowRecord)

	n         int64
	rcv       RangeSet // out-of-order arrivals above Cum
	win       core.WindowReceiver
	ctrl      packet.Mark // mark of a pure control packet: important under TLT
	echoINT   bool
	completed bool
}

// Reset sets the receiver up for flow. It is the only place receiver
// state is initialised; only the range set's emptied backing carries over.
// window turns on the window-based TLT echo machine (IRN, HPCC); echoINT
// copies each data packet's telemetry into its ACK (HPCC). There is no
// mid-flow check: a receiver whose sender aborted never sees its flow end.
func (r *QPReceiver) Reset(host *fabric.Host, flow *Flow, mss int, rec *stats.FlowRecord, tlt core.Config, window, echoINT bool) {
	r.rcv.Reset()
	*r = QPReceiver{
		host: host, flow: flow, rec: rec,
		n:       packets(flow.Size, mss),
		rcv:     r.rcv,
		ctrl:    core.ControlMark(tlt.Enabled),
		echoINT: echoINT,
	}
	if window {
		r.win = *core.NewWindowReceiver(tlt)
	}
}

// Clear zeroes the receiver down to what Reset carries over, so one
// parked between runs pins nothing of the run it served.
func (r *QPReceiver) Clear() {
	r.rcv.Reset()
	*r = QPReceiver{rcv: r.rcv}
}

// Delivered returns the packets delivered in order so far.
func (r *QPReceiver) Delivered() int64 { return r.Cum }

func (r *QPReceiver) receiver() *QPReceiver { return r }

// Handle implements fabric.PacketHandler for the data path.
func (r *QPReceiver) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Data {
		return
	}
	r.win.OnData(pkt.Mark)
	if pkt.Seq >= r.Cum {
		r.rcv.Add(pkt.Seq, pkt.Seq+1)
		r.Cum = r.rcv.NextUncovered(r.Cum)
		r.rcv.TrimBelow(r.Cum)
	}
	ack := r.control(packet.Ack, r.Cum)
	if !r.rcv.Empty() {
		ack.SetSack(r.rcv.AppendBlocks(ack.SackBuf(r.host.Pool()), packet.SackBufBlocks))
	}
	if m := r.win.TakeAckMark(); m != packet.Unimportant {
		ack.Mark = m
	}
	// Echo the data packet's send time: the sender uses it for
	// RACK-style invalidation of retransmissions that were themselves
	// lost (the per-OOO-arrival NACK behaviour of commercial RoCE NICs).
	ack.EchoTS = pkt.SentAt
	if r.echoINT {
		// Echo the INT stack on the ACK's own extension: pkt's goes back
		// on the free list with pkt when Handle returns.
		ack.CopyINTFrom(r.host.Pool(), pkt)
	}
	r.reply(ack)
}

// Control sends a payload-free ACK, NACK or CNP carrying ack.
func (r *QPReceiver) Control(t packet.Type, ack int64) { r.reply(r.control(t, ack)) }

func (r *QPReceiver) control(t packet.Type, ack int64) *packet.Packet {
	pkt := r.host.NewPacket()
	pkt.Flow, pkt.Dst = r.flow.ID, r.flow.Src
	pkt.Type = t
	pkt.Ack = ack
	pkt.Mark = r.ctrl
	return pkt
}

// reply books and sends pkt, then stamps the flow's completion if the
// message is whole (the ACK saying so is on its way).
func (r *QPReceiver) reply(pkt *packet.Packet) {
	if r.rec != nil {
		// Receiver-owned counters: the sender may live on another shard.
		size := int64(pkt.WireSize())
		r.rec.RxTotalBytes += size
		if pkt.Important() {
			r.rec.RxImpPackets++
			r.rec.RxImpBytes += size
		}
	}
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

// StartQP wires the two ends of a queue pair, each Reset for the same
// flow, into their hosts and starts the sender at the flow's start time,
// allocating nothing. The FCT is stamped when the receiver has the whole
// message, on its shard; a sender that gives up stamps the abort on its
// own. onDone callers that must fire once per flow deduplicate themselves.
func StartQP(
	snd interface {
		fabric.PacketHandler
		sender() *QPSender
	},
	rcv interface {
		fabric.PacketHandler
		receiver() *QPReceiver
	},
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	q, r := snd.sender(), rcv.receiver()
	q.host.Register(q.flow.ID, snd)
	r.host.Register(q.flow.ID, rcv)
	q.recorder, q.onDone = recorder, onDone
	r.recorder, r.onDone = recorder, onDone
	q.S.PostKind(q.flow.Start, kindQPStart, 0, q)
}
