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
// Extensions are pooled the same way, a free list per kind: a packet takes
// one the first time it needs it (SackBuf, AppendINT, CopyINTFrom) and Put
// takes it back, so a free packet holds nothing.
//
// A Pool belongs to exactly one simulation (one *sim.Sim event loop) and
// is NOT safe for concurrent use. Its free packets and extensions outlive
// it: when a run ends, the experiment runner takes them (Release) into
// the memory of the grid worker slot the run occupied, and hands them
// (Adopt) to the pool of the next run on that slot. Two runs never hold
// the same packet at the same time.
type Pool struct {
	pkts  freeList[Packet, *Packet]
	sacks freeList[sackExt, *sackExt]
	ints  freeList[intExt, *intExt]

	// News counts fresh heap allocations, Reuses recycled ones; their
	// ratio is the pool hit rate reported by benchmarks.
	News   uint64
	Reuses uint64

	// Puts counts recycles (News+Reuses-Puts = live packets, assuming
	// no leaks); the runtime invariant tests assert on it.
	Puts uint64

	exts int // extensions made or adopted (ExtsOut)

	// onFree is non-nil when audit mode is on: it tracks free-list
	// membership so a double Put panics instead of corrupting a list.
	onFree map[any]bool
}

// Stock is what a pool hands on at Release and takes over at Adopt: its
// free packets and extensions, zeroed.
type Stock struct {
	pkts  []*Packet
	sacks []*sackExt
	ints  []*intExt
}

// Len returns how many packets, SACK and INT extensions s holds (tests).
func (s Stock) Len() (pkts, sacks, ints int) { return len(s.pkts), len(s.sacks), len(s.ints) }

// poisonSeq is stamped under audit mode into the Seq of a free packet and
// the count of a free extension; one whose stamp was clobbered before it
// left the free list was written through a stale pointer (use-after-put).
const poisonSeq int64 = -0x7057_dead_beef

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// EnableAudit turns on free-list invariant checking (tests and -audit
// runs): Put panics on a double Put of a packet or of an extension (two
// packets sharing one), and taking either off a free list panics when it
// was mutated there. Adopted ones come under the check too. The checks
// cost a map operation per Get/Put, so production pools leave this off.
func (p *Pool) EnableAudit() {
	p.onFree = make(map[any]bool)
	p.pkts.audit(p.onFree)
	p.sacks.audit(p.onFree)
	p.ints.audit(p.onFree)
}

// Adopt gives a pool that has not handed out a packet yet the stock
// another pool released, as its free lists.
func (p *Pool) Adopt(s Stock) {
	p.pkts.adopt(s.pkts)
	p.sacks.adopt(s.sacks)
	p.ints.adopt(s.ints)
	p.exts = len(s.sacks) + len(s.ints)
}

// Release empties the pool and returns its free packets and extensions,
// zeroed as Put left them (audit stamps wiped) — except adopted ones the
// pool never had to draw on, which are dropped: a slot's stock follows
// what its last run used, not the most any run ever used. Packets still
// out at Release are simply not the pool's any more.
func (p *Pool) Release() Stock {
	s := Stock{p.pkts.release(p.onFree), p.sacks.release(p.onFree), p.ints.release(p.onFree)}
	p.exts, p.onFree = 0, nil
	return s
}

// Get returns a zeroed packet, recycling a freed one when available. A
// nil pool allocates every packet, and its Put drops them.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	if pkt := p.pkts.pop(p.onFree); pkt != nil {
		p.Reuses++
		return pkt
	}
	p.News++
	return &Packet{}
}

// Put recycles pkt. The header is fully zeroed, so no stale field leaks
// into the next Get, and its extensions go back on their free lists
// emptied: a reader that holds on to a delivered packet's blocks or hops
// copies them (Packet.Snapshot).
func (p *Pool) Put(pkt *Packet) {
	if p == nil {
		return
	}
	if x := pkt.sack; x != nil {
		x.n = 0
		p.sacks.push(x, p.onFree)
	}
	if x := pkt.hops; x != nil {
		x.n, x.ov = 0, nil
		p.ints.push(x, p.onFree)
	}
	*pkt = Packet{}
	p.Puts++
	p.pkts.push(pkt, p.onFree)
}

// FreeLen returns the current free-list length (tests).
func (p *Pool) FreeLen() int { return len(p.pkts.free) }

// ExtsOut returns how many of the extensions the pool made or adopted are
// not on its free lists: on live packets, or gone with packets nobody Put
// (tests; exact only for a network with one pool).
func (p *Pool) ExtsOut() int { return p.exts - len(p.sacks.free) - len(p.ints.free) }

// sackExt and intExt take an extension off the free list, or make one.
func (p *Pool) sackExt() *sackExt {
	if p != nil {
		if x := p.sacks.pop(p.onFree); x != nil {
			return x
		}
		p.exts++
	}
	return new(sackExt)
}

func (p *Pool) intExt() *intExt {
	if p != nil {
		if x := p.ints.pop(p.onFree); x != nil {
			return x
		}
		p.exts++
	}
	return new(intExt)
}

// stamped is what audit mode needs of a pooled item: the field it stamps.
type stamped[T any] interface {
	*T
	stampAt() *int64
}

func (p *Packet) stampAt() *int64  { return &p.Seq }
func (x *sackExt) stampAt() *int64 { return &x.n }
func (x *intExt) stampAt() *int64  { return &x.n }

// freeList is one of a pool's stacks. It remembers how short it has been
// since Adopt: the items below that mark are adopted ones this run never
// needed. audit is the pool's onFree, nil when audit mode is off.
type freeList[T any, P stamped[T]] struct {
	free []P
	low  int
}

func (l *freeList[T, P]) pop(audit map[any]bool) P {
	n := len(l.free) - 1
	if n < 0 {
		return nil
	}
	v := l.free[n]
	l.free, l.free[n], l.low = l.free[:n], nil, min(l.low, n)
	if audit != nil {
		unstamp(audit, v)
	}
	return v
}

func (l *freeList[T, P]) push(v P, audit map[any]bool) {
	if audit != nil {
		if audit[v] {
			panic("packet.Pool: double Put of a packet or an extension")
		}
		audit[v] = true
		*v.stampAt() = poisonSeq
	}
	l.free = append(l.free, v)
}

// audit puts the items already on the list under audit.
func (l *freeList[T, P]) audit(audit map[any]bool) {
	free := l.free
	l.free = l.free[:0]
	for _, v := range free {
		l.push(v, audit)
	}
}

func (l *freeList[T, P]) adopt(v []P) { l.free, l.low = v, len(v) }

// release empties the list and returns the items the run drew on.
func (l *freeList[T, P]) release(audit map[any]bool) []P {
	if audit != nil {
		for _, v := range l.free {
			unstamp(audit, v)
		}
	}
	n := copy(l.free, l.free[l.low:])
	clear(l.free[n:])
	v := l.free[:n]
	*l = freeList[T, P]{}
	// A free list ends a run in the order its items last came back, which
	// has nothing to do with where they lie in memory, and each trim above
	// leaves a sparser sample of the heap than the one before. The next
	// pool takes from the end of the slice, so put the lowest addresses
	// there: the items it keeps cycling through are then neighbours again,
	// as they are in a pool that allocates its own, and the ones it never
	// reaches — the next to be dropped — are the far ones. Without this a
	// 36-cell fig5 grid ran 6% slower than with per-cell pools; with it, 1%
	// faster.
	slices.SortFunc(v, func(a, b P) int {
		return cmp.Compare(uintptr(unsafe.Pointer(b)), uintptr(unsafe.Pointer(a)))
	})
	return v
}

// unstamp checks and wipes the audit stamp of an item leaving a free list.
func unstamp[T any, P stamped[T]](audit map[any]bool, v P) {
	s := v.stampAt()
	if *s != poisonSeq {
		panic("packet.Pool: a freed packet or extension was mutated on the free list (use-after-put)")
	}
	*s = 0
	delete(audit, v)
}
