package fabric

import (
	"fmt"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// PacketHandler consumes packets delivered to a host for one flow.
type PacketHandler interface {
	Handle(pkt *packet.Packet)
}

// Host is an end host with a single NIC port. Transport endpoints
// register per-flow handlers; outbound packets share one FIFO NIC queue
// that honors PFC pause from the ToR.
type Host struct {
	id  packet.NodeID
	sim *sim.Sim

	tx *Tx

	// nic is the NIC queue; each entry carries the packet's wire size,
	// recorded while the packet is cache-warm.
	nic fifo

	// demux maps a flow to its handler. It and nic are the buffers that
	// grow with traffic, so they pass from run to run (Adopt, Release):
	// demuxSize is the most flows demux has held at once in any run (a
	// map never shrinks), demuxPeak the most in this one.
	demux     map[packet.FlowID]PacketHandler
	demuxSize int
	demuxPeak int

	// pool, when set, supplies outbound packets and recycles inbound
	// ones after dispatch. Shared by every host of one network (the sim
	// is single-threaded, so no locking is needed).
	pool *packet.Pool

	// Trace, when set, observes every packet the host sends ("tx") and
	// receives ("rx"). Used by the trace package; it MUST stay nil when
	// tracing is disabled so the hot path pays only a nil check.
	Trace func(now sim.Time, dir string, pkt *packet.Packet)
}

// NewHost constructs a host.
func NewHost(s *sim.Sim, id packet.NodeID) *Host {
	return &Host{id: id, sim: s}
}

// ID returns the host's node ID.
func (h *Host) ID() packet.NodeID { return h.id }

// Sim returns the scheduler this host's events run on — in a sharded
// network, its shard's. Transports derive every timer from it so flow
// state machines land on the shard owning their endpoint.
func (h *Host) Sim() *sim.Sim { return h.sim }

// NICTx returns the host's transmitter (for pause accounting in tests).
func (h *Host) NICTx() *Tx { return h.tx }

// SetPool installs the packet free-list this host allocates from.
func (h *Host) SetPool(p *packet.Pool) { h.pool = p }

// Pool returns the packet free-list the host allocates from (nil: none),
// which the packets it sends take their extensions from.
func (h *Host) Pool() *packet.Pool { return h.pool }

// NewPacket returns a zeroed packet for the transport to fill and Send.
// Pooled when a free-list is installed, heap-allocated otherwise.
func (h *Host) NewPacket() *packet.Packet { return h.pool.Get() }

// QueuedPackets returns the NIC backlog length.
func (h *Host) QueuedPackets() int { return h.nic.n }

// Register installs the handler for a flow's packets arriving at this
// host, replacing any the flow had.
func (h *Host) Register(flow packet.FlowID, ep PacketHandler) {
	if h.demux == nil {
		h.demux = make(map[packet.FlowID]PacketHandler)
	}
	h.demux[flow] = ep
	h.demuxPeak = max(h.demuxPeak, len(h.demux))
}

// Unregister removes a flow's handler, so straggler packets for the flow
// (e.g. after it finished) fall through to the drop path.
func (h *Host) Unregister(flow packet.FlowID) { delete(h.demux, flow) }

// Send stamps the source and queues the packet on the NIC.
func (h *Host) Send(pkt *packet.Packet) {
	pkt.Src = h.id
	if h.Trace != nil {
		h.Trace(h.sim.Now(), "tx", pkt)
	}
	// WireSize is computed here, right after the transport filled the
	// packet, and carried alongside: at dequeue time the struct would be
	// cache-cold. Switches never add INT while the packet sits in the
	// NIC queue, so the size cannot go stale.
	h.nic.push(swEnt{pkt: pkt, sz: int32(pkt.WireSize())})
	h.tx.Kick()
}

func (h *Host) attach(port int, tx *Tx) {
	if port != 0 {
		panic(fmt.Sprintf("host %d: only port 0 exists, got %d", h.id, port))
	}
	h.tx = tx
	tx.dequeue = h.dequeue
}

func (h *Host) dequeue() (*packet.Packet, int) {
	e := h.nic.pop()
	return e.pkt, int(e.sz)
}

// Receive implements Device: demultiplex to the flow's endpoint, or react
// to PFC control frames.
func (h *Host) Receive(pkt *packet.Packet, inPort int) {
	switch pkt.Type {
	case packet.Pause:
		h.tx.Pause()
		h.pool.Put(pkt)
		return
	case packet.Resume:
		h.tx.Resume()
		h.pool.Put(pkt)
		return
	}
	if h.Trace != nil {
		h.Trace(h.sim.Now(), "rx", pkt)
	}
	if ep := h.demux[pkt.Flow]; ep != nil {
		ep.Handle(pkt)
	}
	// Packets for unknown flows (e.g. stragglers after a flow finished)
	// are dropped silently, as a real stack would RST/ignore.
	//
	// Either way the packet's life ends here: handlers copy what they
	// keep (no transport retains the pointer past Handle), so it can go
	// back on the free-list.
	h.pool.Put(pkt)
}
