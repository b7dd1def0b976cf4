package dcqcn

import (
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Receiver is the responder side of a queue pair. ACK generation and
// message completion are the embedded transport.QPReceiver; what is here
// echoes congestion via CNPs and, for go-back-N, accepts in order only
// and NACKs the rest.
type Receiver struct {
	transport.QPReceiver
	s           *sim.Sim
	gbn         bool
	cnpInterval sim.Time

	lastNackFor int64
	lastCnp     sim.Time
	cnpPrimed   bool
}

// Reset initialises the responder for flow on host; see
// transport.QPReceiver.Reset.
func (r *Receiver) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	r.QPReceiver.Reset(host, flow, cfg.MSS, rec, cfg.TLT, cfg.Mode == IRN, false)
	*r = Receiver{
		QPReceiver: r.QPReceiver,
		s:          host.Sim(), gbn: cfg.Mode == GBN, cnpInterval: cfg.CnpInterval, lastNackFor: -1,
	}
}

// Clear zeroes the responder down to what Reset carries over.
func (r *Receiver) Clear() {
	r.QPReceiver.Clear()
	*r = Receiver{QPReceiver: r.QPReceiver}
}

// Handle implements fabric.PacketHandler for the data path.
func (r *Receiver) Handle(pkt *packet.Packet) {
	if pkt.Type != packet.Data {
		return
	}
	if pkt.CE {
		r.maybeCnp()
	}
	switch {
	case !r.gbn:
		r.QPReceiver.Handle(pkt)
	case pkt.Seq == r.Cum:
		r.Cum++
		if r.lastNackFor < r.Cum {
			r.lastNackFor = -1
		}
		r.Control(packet.Ack, r.Cum)
	case pkt.Seq > r.Cum:
		// Out of order: drop payload, NACK once per expected PSN.
		if r.lastNackFor != r.Cum {
			r.lastNackFor = r.Cum
			r.Control(packet.Nack, r.Cum)
		}
	default:
		// Duplicate of already-delivered data: re-ACK.
		r.Control(packet.Ack, r.Cum)
	}
}

func (r *Receiver) maybeCnp() {
	now := r.s.Now()
	if r.cnpPrimed && now-r.lastCnp < r.cnpInterval {
		return
	}
	r.cnpPrimed = true
	r.lastCnp = now
	r.Control(packet.Cnp, 0)
}
