package fabric

import "tlt/internal/packet"

// Mem holds the growable buffers of hosts and switch queues between runs:
// a finished run's devices Release them, the next run's devices on the
// same grid worker slot Adopt them, and their warm-up growth is paid once
// per slot instead of once per run. Everything in a Mem is empty and
// zeroed through its whole capacity — Register relies on that when it
// extends a host's index table into recycled capacity. The zero Mem is
// empty; a Mem is not safe for concurrent use.
//
// Both lists are stacks. Releasing a network's devices in reverse build
// order and adopting in build order therefore hands device i of the next
// network the buffers device i grew, which keeps each buffer near the
// size its position in the fabric needs. A buffer follows what its last
// run used: one the run never filled a quarter of is dropped at Release
// (its place in the stack stays, empty), so the queue one incast grew
// does not stay with its port for the rest of a grid. What no device of
// the next network adopts is for the caller to drop (assign the zero Mem)
// before that network releases.
type Mem struct {
	hosts  []hostBufs
	queues [][]swEnt
}

// hostBufs is one host's NIC queue and demux tables.
type hostBufs struct {
	queue     []*packet.Packet
	sizes     []int
	idx       []int32
	slots     []PacketHandler
	freeSlots []int32
}

// Adopt gives a host that has neither sent nor registered anything the
// buffers another host released.
func (h *Host) Adopt(m *Mem) {
	n := len(m.hosts)
	if n == 0 {
		return
	}
	h.hostBufs = m.hosts[n-1]
	m.hosts[n-1] = hostBufs{}
	m.hosts = m.hosts[:n-1]
}

// Release moves the host's buffers to m, emptied and zeroed (see handOn
// for the ones it drops instead). Packets still queued on the NIC are
// dropped with them; the host must not be used again.
func (h *Host) Release(m *Mem) {
	b := h.hostBufs
	used := max(h.peak, len(b.queue))
	b.queue, b.sizes = handOn(b.queue, used), handOn(b.sizes, used)
	b.idx = handOn(b.idx, len(b.idx))
	b.slots, b.freeSlots = handOn(b.slots, len(b.slots)), b.freeSlots[:0]
	m.hosts = append(m.hosts, b)
	h.hostBufs, h.pop, h.peak = hostBufs{}, 0, 0
}

// Adopt gives every egress queue of a switch that has not forwarded yet
// a buffer another queue released.
func (sw *Switch) Adopt(m *Mem) {
	for _, p := range sw.ports {
		for i := range p.qs {
			n := len(m.queues)
			if n == 0 {
				return
			}
			p.qs[i].queue = m.queues[n-1]
			m.queues[n-1] = nil
			m.queues = m.queues[:n-1]
		}
	}
}

// Release moves the switch's queue buffers to m, emptied and zeroed, in
// the reverse of Adopt's order. Packets still queued are dropped with
// them; the switch must not be used again.
func (sw *Switch) Release(m *Mem) {
	for pi := len(sw.ports) - 1; pi >= 0; pi-- {
		qs := sw.ports[pi].qs
		for i := len(qs) - 1; i >= 0; i-- {
			q := &qs[i]
			m.queues = append(m.queues, handOn(q.queue, max(q.peak, len(q.queue))))
			q.queue, q.pop, q.peak = nil, 0, 0
		}
	}
}

// handOn returns buf emptied and zeroed for the next run, or nil when the
// run just finished never filled a quarter of it. used is the longest buf
// has been, so nothing past it was written.
func handOn[T any](buf []T, used int) []T {
	if cap(buf) > 4*used {
		return nil
	}
	clear(buf[:used])
	return buf[:0]
}
