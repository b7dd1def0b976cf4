package transport

import (
	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// kindRTOTick drives the lazy RTO tick through a static handler on a
// preallocated per-sender event (no closure boxing per arm).
var kindRTOTick = sim.NewKind(func(_, arg any) { arg.(*QPSender).rtoTick() })

// qpLaw is the congestion law a QPSender is embedded in: the three places
// where the reliability core has to call back into it.
type qpLaw interface {
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
	Board *PktBoard
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

	rtoDeadline sim.Time // lazy RTO: 0 = disarmed
	rtoEv       *sim.Event
	backoff     uint // exponential backoff shift (only if rto.MaxBackoffShift > 0)
	retries     int  // consecutive full-RTO rounds without forward progress
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

// Init sets the core up for flow, segmented into mss-byte packets, under
// the law that embeds it.
func (q *QPSender) Init(law qpLaw, host *fabric.Host, flow *Flow, mss int, rto *RTOConfig, rec *stats.FlowRecord) {
	q.S, q.Board, q.Rec = host.Sim(), NewPktBoard(packets(flow.Size, mss)), rec
	q.host, q.flow, q.law, q.mss, q.rto = host, flow, law, mss, rto
}

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
	// Field-by-field fill: NewPacket returns a zeroed struct, and a
	// composite-literal assignment would copy the whole INT-array-bearing
	// packet through a stack temporary on every send.
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
	var impSentAt sim.Time
	rackOK := false
	switch pkt.Mark {
	case packet.ImportantEcho, packet.ImportantClockEcho:
		impSentAt, rackOK = q.Win.OnEcho()
	}
	progressed := q.Board.Ack(pkt.Ack)
	hadLoss := q.Board.HasLoss()
	q.Board.Sack(pkt.Sack)
	if rackOK {
		q.Board.RackMark(impSentAt)
	}
	// Every ACK proves its data packet round-tripped: anything sent
	// strictly earlier and still unacknowledged — including stale
	// retransmissions — is lost (commercial RoCE NACK semantics).
	if pkt.EchoTS > 0 {
		q.Board.RackMark(pkt.EchoTS)
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
	if aborted {
		q.Win.Reset()
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
	// OnComplete fires once when the full message has arrived.
	OnComplete func()

	host *fabric.Host
	flow *Flow
	rec  *stats.FlowRecord

	n         int64
	rcv       RangeSet // out-of-order arrivals above Cum
	win       core.WindowReceiver
	ctrl      packet.Mark // mark of a pure control packet: important under TLT
	echoINT   bool
	completed bool
}

// Init sets the receiver up for flow. window turns on the window-based
// TLT echo machine (IRN, HPCC); echoINT copies each data packet's
// telemetry into its ACK (HPCC).
func (r *QPReceiver) Init(host *fabric.Host, flow *Flow, mss int, rec *stats.FlowRecord, tlt core.Config, window, echoINT bool) {
	r.host, r.flow, r.rec = host, flow, rec
	r.n = packets(flow.Size, mss)
	r.ctrl = core.ControlMark(tlt.Enabled)
	if window {
		r.win = *core.NewWindowReceiver(tlt)
	}
	r.echoINT = echoINT
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
	ack.Sack = r.rcv.Blocks(8)
	if m := r.win.TakeAckMark(); m != packet.Unimportant {
		ack.Mark = m
	}
	// Echo the data packet's send time: the sender uses it for
	// RACK-style invalidation of retransmissions that were themselves
	// lost (the per-OOO-arrival NACK behaviour of commercial RoCE NICs).
	ack.EchoTS = pkt.SentAt
	if r.echoINT {
		// Echo the INT stack by value: the ACK must not alias storage
		// inside pkt, which goes back on the free list when Handle returns.
		ack.CopyINTFrom(pkt)
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

// reply books and sends pkt, then fires OnComplete if the message is whole
// (the ACK saying so is on its way).
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
		if r.OnComplete != nil {
			r.OnComplete()
		}
	}
}

// StartQP wires the two ends of a queue pair into their hosts and starts
// the sender at flow.Start. The FCT is stamped when the receiver has the
// whole message; a sender that gives up stamps the abort.
func StartQP(
	snd interface {
		fabric.PacketHandler
		Start()
		sender() *QPSender
	},
	rcv interface {
		fabric.PacketHandler
		receiver() *QPReceiver
	},
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	q, r := snd.sender(), rcv.receiver()
	src, dst, rec := q.host, r.host, q.Rec
	src.Register(q.flow.ID, snd)
	dst.Register(q.flow.ID, rcv)
	// Completion runs on the receiver's shard, abort on the sender's;
	// each closure touches only its own side of the record (see
	// stats.FlowRecord). onDone callers that must fire once per flow
	// deduplicate themselves.
	r.OnComplete = func() {
		if !rec.Done {
			recorder.FlowDone(rec, dst.Sim().Now())
			if onDone != nil {
				onDone(rec)
			}
		}
	}
	q.OnAbort = func() {
		if rec.Aborted {
			return
		}
		recorder.FlowAborted(rec, src.Sim().Now())
		if onDone != nil {
			onDone(rec)
		}
	}
	src.Sim().At(q.flow.Start, snd.Start)
}
