package packet

import (
	"cmp"
	"slices"
	"unsafe"
)

// Pool is a free-list for Packet allocations on the simulation hot path.
// Hosts draw outbound packets from it and recycle inbound packets once
// the transport handler returns; switches recycle packets they drop at
// admission and draw PFC control frames from it. Steady-state traffic
// therefore reuses a small working set of structs instead of pressuring
// the GC with one allocation per segment, ACK, drop and PAUSE frame.
//
// A Pool belongs to exactly one simulation (one *sim.Sim event loop) and
// is NOT safe for concurrent use. Its free packets outlive it: when a
// run ends, the experiment runner takes them (Release) into the memory of
// the grid worker slot the run occupied, and hands them (Adopt) to the
// pool of the next run on that slot. Two runs never hold the same packet
// at the same time.
type Pool struct {
	free []*Packet
	// low is the shortest the free list has been since Adopt. The list is
	// a stack, so free[:low] are adopted packets this run never needed.
	low int

	// News counts fresh heap allocations, Reuses recycled ones; their
	// ratio is the pool hit rate reported by benchmarks.
	News   uint64
	Reuses uint64

	// Puts counts recycles (News+Reuses-Puts = live packets, assuming
	// no leaks); the runtime invariant tests assert on it.
	Puts uint64

	// onFree is non-nil when audit mode is on: it tracks free-list
	// membership so a double Put panics instead of corrupting the list.
	onFree map[*Packet]bool
}

// poisonSeq is stamped into freed packets under audit mode; a packet
// whose poison was clobbered between Put and Get was written through a
// stale pointer (use-after-put).
const poisonSeq int64 = -0x7057_dead_beef

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// EnableAudit turns on free-list invariant checking (tests and -audit
// runs): Put panics on a double-put, and Get panics when a freed packet
// was mutated while on the free list (use-after-put). Adopted packets
// come under the check too. The checks cost a map operation per Get/Put,
// so production pools leave this off.
func (p *Pool) EnableAudit() {
	p.onFree = make(map[*Packet]bool, len(p.free))
	for _, pkt := range p.free {
		p.onFree[pkt] = true
		pkt.Seq = poisonSeq
	}
}

// Adopt gives a pool that has not handed out a packet yet the free
// packets another pool released, as its free list.
func (p *Pool) Adopt(pkts []*Packet) { p.free, p.low = pkts, len(pkts) }

// Release empties the pool and returns its free packets, zeroed as Put
// left them (audit poison wiped) — except adopted ones the pool never had
// to draw on, which are dropped: a slot's stock of packets follows what
// its last run used, not the most any run ever used. Packets still out at
// Release are simply not the pool's any more.
func (p *Pool) Release() []*Packet {
	if p.onFree != nil {
		for _, pkt := range p.free {
			p.unpoison(pkt)
		}
	}
	n := copy(p.free, p.free[p.low:])
	clear(p.free[n:])
	pkts := p.free[:n]
	p.free, p.low, p.onFree = nil, 0, nil
	// A free list ends a run in the order its packets last came back,
	// which has nothing to do with where they lie in memory, and each trim
	// above leaves a sparser sample of the heap than the one before. The
	// next pool takes from the end of the slice, so put the lowest
	// addresses there: the packets it keeps cycling through are then
	// neighbours again, as they are in a pool that allocates its own, and
	// the ones it never reaches — the next to be dropped — are the far
	// ones. Without this a 36-cell fig5 grid ran 6% slower than with
	// per-cell pools; with it, 1% faster.
	slices.SortFunc(pkts, func(a, b *Packet) int {
		return cmp.Compare(uintptr(unsafe.Pointer(b)), uintptr(unsafe.Pointer(a)))
	})
	return pkts
}

// Get returns a zeroed packet, recycling a freed one when available.
func (p *Pool) Get() *Packet {
	if n := len(p.free) - 1; n >= 0 {
		if n < p.low {
			p.low = n
		}
		pkt := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.Reuses++
		if p.onFree != nil {
			p.unpoison(pkt)
		}
		return pkt
	}
	p.News++
	return &Packet{}
}

// unpoison checks and wipes the audit stamp of a packet leaving the pool.
func (p *Pool) unpoison(pkt *Packet) {
	if pkt.Seq != poisonSeq {
		panic("packet.Pool: freed packet was mutated on the free list (use-after-put)")
	}
	pkt.Seq = 0
	delete(p.onFree, pkt)
}

// Put recycles pkt. The struct is fully zeroed — including the Sack
// slice header and the inline INT state — so no stale field leaks into
// the next Get. The one thing a packet keeps is its emptied SACK backing
// (Packet.SackBuf), so a reader that holds on to a delivered packet's
// blocks copies them (Packet.Snapshot); the INT overflow slice is never
// reused.
func (p *Pool) Put(pkt *Packet) {
	if p.onFree != nil {
		if p.onFree[pkt] {
			panic("packet.Pool: double Put of the same packet")
		}
		p.onFree[pkt] = true
	}
	buf := pkt.sackBuf
	if buf != nil && len(pkt.Sack) > 0 {
		*buf = [SackBufBlocks]SackBlock{}
	}
	*pkt = Packet{}
	pkt.sackBuf = buf
	if p.onFree != nil {
		pkt.Seq = poisonSeq
	}
	p.Puts++
	p.free = append(p.free, pkt)
}

// FreeLen returns the current free-list length (tests).
func (p *Pool) FreeLen() int { return len(p.free) }
