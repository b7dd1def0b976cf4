package fabric

import "tlt/internal/packet"

// swEnt is one queued packet plus the byte accounting the dequeue path
// needs: carrying size, color and the ingress port (for per-ingress PFC
// accounting) in the FIFO entry keeps the pop path off the packet's (long
// since evicted) cache line. in fits the padding: the entry stays 16 bytes.
// A host NIC fills only pkt and sz.
type swEnt struct {
	pkt *packet.Packet
	sz  int32
	red bool
	in  uint16
}

// minFIFO is the first ring a FIFO grows.
const minFIFO = 4

// fifo is the one FIFO of the fabric — every host NIC queue and every
// switch class queue — on a power-of-two ring. It grows by doubling, with
// the live entries unwrapped to the front of the new ring, so its capacity
// follows the most entries it has held at once, never how long it went
// without draining. pop zeroes the slot it reads: nothing outside the live
// entries holds a packet.
type fifo struct {
	buf  []swEnt // len(buf) is 0 or a power of two
	head int     // slot of the oldest entry
	n    int     // entries queued
	peak int     // most entries queued at once this run
}

func (f *fifo) push(e swEnt) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = e
	f.n++
	f.peak = max(f.peak, f.n)
}

func (f *fifo) grow() {
	buf := make([]swEnt, max(2*len(f.buf), minFIFO))
	copy(buf[copy(buf, f.buf[f.head:]):], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// pop removes and returns the oldest entry, or the zero entry when the
// FIFO is empty.
func (f *fifo) pop() swEnt {
	if f.n == 0 {
		return swEnt{}
	}
	e := f.buf[f.head]
	f.buf[f.head] = swEnt{}
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return e
}

// handOn empties the FIFO, dropping what is still queued, and returns its
// ring zeroed for the next run — or nil when this run never filled a
// quarter of it (see keep).
func (f *fifo) handOn() []swEnt {
	buf := f.buf
	if keep(len(buf), f.peak) {
		clear(buf)
	} else {
		buf = nil
	}
	*f = fifo{}
	return buf
}

// keep is the rule every buffer in a Mem follows: a buffer grown to size
// passes to the next run only if the run just finished, at its peak,
// filled at least a quarter of it.
func keep(size, peak int) bool { return size <= 4*peak }
