package tcp

import (
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Receiver is a law on the responder core (transport.Receiver): it ACKs
// bytes, echoes ECN per packet for DCTCP and a send time only off a first
// transmission (Karn), and books no receive-side bytes.
type Receiver struct {
	transport.Receiver
	// OnDeliver, if set, gets the in-order bytes each time they grow.
	OnDeliver  func(total int64)
	tc         uint8 // the ACK's traffic class
	sackBlocks int32 // cfg.MaxSackBlocks
}

// Reset initialises the receiver for flow; see transport.Receiver.Reset.
func (r *Receiver) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	r.Receiver.Reset(host, flow, flow.Size, rec, cfg.TLT, true, false)
	*r = Receiver{Receiver: r.Receiver, tc: cfg.TrafficClass, sackBlocks: int32(cfg.MaxSackBlocks)}
}

// Clear zeroes the receiver down to what Reset carries over.
func (r *Receiver) Clear() { r.Receiver.Clear(); *r = Receiver{Receiver: r.Receiver} }

// Handle implements fabric.PacketHandler for the data path.
func (r *Receiver) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Data {
		return
	}
	old := r.Cum
	ack := r.Accept(pkt, pkt.Seq+int64(pkt.Len), int(r.sackBlocks))
	ack.TC, ack.ECE = r.tc, pkt.CE
	if !pkt.IsRetx && pkt.SentAt > 0 {
		ack.EchoTS = pkt.SentAt
	}
	r.Reply(ack)
	if r.Cum > old && r.OnDeliver != nil {
		r.OnDeliver(r.Cum)
	}
}
