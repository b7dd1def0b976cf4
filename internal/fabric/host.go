package fabric

import (
	"fmt"
	"slices"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// PacketHandler consumes packets delivered to a host for one flow.
type PacketHandler interface {
	Handle(pkt *packet.Packet)
}

// maxDenseFlow bounds the dense dispatch table: flow IDs below it index
// a per-host slot table directly; anything above falls back to the map.
// The workload generator allocates IDs sequentially from 1, so every
// normal run stays dense; the cap only guards pathological IDs from
// hand-built tests.
const maxDenseFlow = 1 << 22

// Host is an end host with a single NIC port. Transport endpoints
// register per-flow handlers; outbound packets share one FIFO NIC queue
// that honors PFC pause from the ToR.
type Host struct {
	id  packet.NodeID
	sim *sim.Sim

	tx *Tx

	// hostBufs is the NIC queue (queue, with sizes[i] the wire size of
	// queue[i], recorded while the packet is cache-warm) and the dense
	// dispatch tables: flow IDs get a compact per-run slot index at
	// registration, so demux on the per-packet path is two slice indexes.
	// idx maps FlowID → slot+1 (0 = unregistered) and is zero through its
	// whole capacity; slots holds the handlers. These are the buffers that
	// grow with traffic, so they pass from run to run (Adopt, Release).
	hostBufs
	pop  int
	peak int // longest queue has been, as of the last time it shrank

	// handlers is the slow path for IDs past maxDenseFlow and stays nil
	// until one appears.
	handlers map[packet.FlowID]PacketHandler

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
func (h *Host) QueuedPackets() int { return len(h.queue) - h.pop }

// Register installs the handler for a flow's packets arriving at this host.
func (h *Host) Register(flow packet.FlowID, ep PacketHandler) {
	if flow < maxDenseFlow {
		if n := int(flow) + 1; n > len(h.idx) {
			// Spare capacity is zero (fresh from append's growth, or
			// cleared by Release), so extending is a reslice.
			h.idx = slices.Grow(h.idx, n-len(h.idx))[:n]
		}
		if s := h.idx[flow]; s != 0 {
			h.slots[s-1] = ep
			return
		}
		if n := len(h.freeSlots); n > 0 {
			// Reuse a slot retired by Unregister so churn-heavy
			// runs keep the table O(live flows), not O(ever seen).
			s := h.freeSlots[n-1]
			h.freeSlots = h.freeSlots[:n-1]
			h.slots[s-1] = ep
			h.idx[flow] = s
			return
		}
		h.slots = append(h.slots, ep)
		h.idx[flow] = int32(len(h.slots))
		return
	}
	if h.handlers == nil {
		h.handlers = make(map[packet.FlowID]PacketHandler)
	}
	h.handlers[flow] = ep
}

// Unregister removes a flow's handler. The slot index is retired, so
// straggler packets for the flow (e.g. after it finished) fall through
// to the drop path.
func (h *Host) Unregister(flow packet.FlowID) {
	if flow < maxDenseFlow {
		if int(flow) < len(h.idx) {
			if s := h.idx[flow]; s != 0 {
				h.slots[s-1] = nil // release the handler reference
				h.idx[flow] = 0
				h.freeSlots = append(h.freeSlots, s)
			}
		}
		return
	}
	delete(h.handlers, flow)
}

// handlerFor demuxes a flow ID: dense slot table first, map slow path
// for out-of-range IDs.
func (h *Host) handlerFor(flow packet.FlowID) PacketHandler {
	if uint64(flow) < uint64(len(h.idx)) {
		if s := h.idx[flow]; s != 0 {
			return h.slots[s-1]
		}
		return nil
	}
	if h.handlers != nil {
		return h.handlers[flow]
	}
	return nil
}

// Send stamps the source and queues the packet on the NIC.
func (h *Host) Send(pkt *packet.Packet) {
	pkt.Src = h.id
	if h.Trace != nil {
		h.Trace(h.sim.Now(), "tx", pkt)
	}
	h.queue = append(h.queue, pkt)
	// WireSize is computed here, right after the transport filled the
	// packet, and carried alongside: at dequeue time the struct would be
	// cache-cold. Switches never add INT while the packet sits in the
	// NIC queue, so the size cannot go stale.
	h.sizes = append(h.sizes, pkt.WireSize())
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
	if h.pop >= len(h.queue) {
		h.queue = h.queue[:0]
		h.sizes = h.sizes[:0]
		h.pop = 0
		return nil, 0
	}
	pkt := h.queue[h.pop]
	size := h.sizes[h.pop]
	h.queue[h.pop] = nil
	h.pop++
	if h.pop == len(h.queue) {
		h.peak = max(h.peak, h.pop)
		h.queue = h.queue[:0]
		h.sizes = h.sizes[:0]
		h.pop = 0
	} else if h.pop > 1024 && h.pop*2 > len(h.queue) {
		h.peak = max(h.peak, len(h.queue))
		n := copy(h.queue, h.queue[h.pop:])
		h.queue = h.queue[:n]
		copy(h.sizes, h.sizes[h.pop:])
		h.sizes = h.sizes[:n]
		h.pop = 0
	}
	return pkt, size
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
	if ep := h.handlerFor(pkt.Flow); ep != nil {
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
