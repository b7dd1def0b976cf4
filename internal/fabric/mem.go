package fabric

import "tlt/internal/packet"

// Mem holds the buffers that grow with traffic — each host's NIC ring and
// demux map, each switch class queue's ring — between runs: a finished
// run's devices Release them, the next run's devices on the same grid
// worker slot Adopt them, and their warm-up growth is paid once per slot
// instead of once per run. Everything in a Mem is empty: rings zeroed,
// maps cleared. The zero Mem is empty; a Mem is not safe for concurrent
// use.
//
// Both lists are stacks. Releasing a network's devices in reverse build
// order and adopting in build order therefore hands device i of the next
// network the buffers device i grew, which keeps each buffer near the
// size its position in the fabric needs. A buffer follows what its last
// run used (keep): one the run never filled a quarter of is dropped at
// Release (its place in the stack stays, empty), so the queue one incast
// grew does not stay with its port for the rest of a grid. What no device
// of the next network adopts is for the caller to drop (assign the zero
// Mem) before that network releases.
type Mem struct {
	hosts  []hostBufs
	queues [][]swEnt
}

// hostBufs is one host's NIC ring and demux map, with the most flows the
// map has held at once.
type hostBufs struct {
	nic       []swEnt
	demux     map[packet.FlowID]PacketHandler
	demuxSize int
}

// Adopt gives a host that has neither sent nor registered anything the
// buffers another host released.
func (h *Host) Adopt(m *Mem) {
	b := take(&m.hosts)
	h.nic.buf, h.demux, h.demuxSize = b.nic, b.demux, b.demuxSize
}

// Release moves the host's buffers to m, emptied. Packets still queued
// on the NIC are dropped with them; the host must not be used again.
func (h *Host) Release(m *Mem) {
	b := hostBufs{nic: h.nic.handOn()}
	if size := max(h.demuxSize, h.demuxPeak); keep(size, h.demuxPeak) {
		clear(h.demux)
		b.demux, b.demuxSize = h.demux, size
	}
	m.hosts = append(m.hosts, b)
	h.demux, h.demuxSize, h.demuxPeak = nil, 0, 0
}

// Adopt gives every egress queue of a switch that has not forwarded yet
// a buffer another queue released.
func (sw *Switch) Adopt(m *Mem) {
	for _, p := range sw.ports {
		for i := range p.qs {
			p.qs[i].buf = take(&m.queues)
		}
	}
}

// Release moves the switch's queue buffers to m, emptied, in the reverse
// of Adopt's order. Packets still queued are dropped with them; the
// switch must not be used again.
func (sw *Switch) Release(m *Mem) {
	for pi := len(sw.ports) - 1; pi >= 0; pi-- {
		qs := sw.ports[pi].qs
		for i := len(qs) - 1; i >= 0; i-- {
			m.queues = append(m.queues, qs[i].handOn())
		}
	}
}

// take pops the top of one of a Mem's stacks: the zero value if it is
// empty.
func take[T any](stack *[]T) (t T) {
	if n := len(*stack); n > 0 {
		t, (*stack)[n-1] = (*stack)[n-1], t
		*stack = (*stack)[:n-1]
	}
	return t
}
