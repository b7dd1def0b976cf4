package tcp

import (
	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/transport"
)

// Receiver is the receiving endpoint: it reassembles the byte stream,
// generates an immediate ACK for every data packet (carrying SACK blocks
// and the DCTCP-accurate ECN echo), and runs the TLT receive-side state
// machine.
type Receiver struct {
	s    *sim.Sim
	host *fabric.Host
	flow *transport.Flow
	cfg  Config

	rcvNxt   int64
	received transport.RangeSet // out-of-order ranges above rcvNxt

	tlt core.WindowReceiver

	// OnDeliver is invoked whenever in-order delivery progresses, with
	// the total in-order bytes now available to the application.
	OnDeliver func(total int64)
}

// NewReceiver constructs a receiver on host for flow.
func NewReceiver(s *sim.Sim, host *fabric.Host, flow *transport.Flow, cfg Config) *Receiver {
	r := new(Receiver)
	r.Reset(host, flow, cfg)
	return r
}

// Reset initialises the receiver for flow on host: everything starts
// from zero or from the arguments (OnDeliver included — set it after),
// and only the range set's emptied backing array carries over. It is the
// only place receiver state is initialised. A receiver cannot tell an
// abandoned flow from a live one (the sender may have aborted), so unlike
// Sender.Reset there is no mid-flow check.
func (r *Receiver) Reset(host *fabric.Host, flow *transport.Flow, cfg Config) {
	r.received.Reset()
	*r = Receiver{
		s: host.Sim(), host: host, flow: flow, cfg: cfg,
		received: r.received,
		tlt:      *core.NewWindowReceiver(cfg.TLT),
	}
}

// Clear zeroes the receiver down to what Reset carries over, so a
// receiver parked between runs pins nothing of the run it served.
func (r *Receiver) Clear() {
	r.received.Reset()
	*r = Receiver{received: r.received}
}

// Delivered returns the in-order bytes delivered so far.
func (r *Receiver) Delivered() int64 { return r.rcvNxt }

// Handle implements fabric.PacketHandler for the data path.
func (r *Receiver) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Data {
		return
	}
	r.tlt.OnData(pkt.Mark)

	old := r.rcvNxt
	if pkt.Seq+int64(pkt.Len) > r.rcvNxt {
		r.received.Add(pkt.Seq, pkt.Seq+int64(pkt.Len))
		r.rcvNxt = r.received.NextUncovered(r.rcvNxt)
		r.received.TrimBelow(r.rcvNxt)
	}

	ack := r.host.NewPacket()
	ack.Flow, ack.Dst = r.flow.ID, r.flow.Src
	ack.Type = packet.Ack
	ack.TC = r.cfg.TrafficClass
	ack.Ack = r.rcvNxt
	if !r.received.Empty() {
		ack.SetSack(r.received.AppendBlocks(ack.SackBuf(r.host.Pool()), r.cfg.MaxSackBlocks))
	}
	ack.ECE = pkt.CE
	ack.Mark = r.tlt.TakeAckMark()
	if !pkt.IsRetx && pkt.SentAt > 0 {
		ack.EchoTS = pkt.SentAt
	}
	r.host.Send(ack)

	if r.rcvNxt > old && r.OnDeliver != nil {
		r.OnDeliver(r.rcvNxt)
	}
}
