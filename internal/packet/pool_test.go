package packet

import (
	"reflect"
	"testing"
)

// withExts gives pkt one SACK block and one INT hop, each on an
// extension from pool.
func withExts(pool *Pool, pkt *Packet) {
	pkt.SetSack(append(pkt.SackBuf(pool), SackBlock{0, 10}))
	pkt.AppendINT(pool, INTHop{QueueBytes: 1})
}

func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewPool()
	a := p.Get()
	if p.News != 1 || p.Reuses != 0 {
		t.Fatalf("counters after first Get: news=%d reuses=%d", p.News, p.Reuses)
	}
	a.Flow = 7
	a.Type = Ack
	withExts(p, a)
	if p.ExtsOut() != 2 {
		t.Fatalf("%d extensions out, want the SACK and the INT one", p.ExtsOut())
	}
	p.Put(a)

	b := p.Get()
	if b != a {
		t.Fatal("Get did not reuse the freed packet")
	}
	if p.Reuses != 1 || p.Puts != 1 {
		t.Fatalf("reuses = %d puts = %d, want 1/1", p.Reuses, p.Puts)
	}
	if !reflect.DeepEqual(*b, Packet{}) || p.ExtsOut() != 0 {
		t.Fatalf("recycled packet not zeroed: %+v, %d extensions out", b, p.ExtsOut())
	}
	// The extensions come back empty: the next packet to take them sees
	// only what it writes.
	b.SetSack(append(b.SackBuf(p), SackBlock{20, 30}))
	b.AppendINT(p, INTHop{QueueBytes: 2})
	if len(b.Sack()) != 1 || b.NumINT() != 1 || b.INTHops()[0].QueueBytes != 2 || p.ExtsOut() != 2 {
		t.Fatalf("reused extensions carry %v and %v, %d out", b.Sack(), b.INTHops(), p.ExtsOut())
	}
}

func TestPoolLIFO(t *testing.T) {
	p := NewPool()
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatal("expected LIFO reuse of most recently freed packet")
	}
	if got := p.Get(); got != a {
		t.Fatal("expected second Get to return the older freed packet")
	}
	if p.News != 2 || p.Reuses != 2 {
		t.Fatalf("counters: news=%d reuses=%d", p.News, p.Reuses)
	}
}

// A pool's free packets and extensions pass to the next pool zeroed, and
// only the ones the next pool had to draw on pass further: Release trims
// each list to its low-water mark.
func TestPoolAdoptReleaseTrimsToUse(t *testing.T) {
	a := NewPool()
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := a.Get()
		p.Flow, p.Seq = 9, int64(i+1)
		withExts(a, p)
		pkts = append(pkts, p)
	}
	for _, p := range pkts {
		a.Put(p)
	}
	handed := a.Release()
	if len(handed.pkts) != 5 || len(handed.sacks) != 5 || len(handed.ints) != 5 || a.FreeLen() != 0 || a.ExtsOut() != 0 {
		t.Fatalf("Release handed %d packets, %d+%d extensions and left %d, want 5, 5+5 and 0",
			len(handed.pkts), len(handed.sacks), len(handed.ints), a.FreeLen())
	}

	b := NewPool()
	b.Adopt(handed)
	x, y := b.Get(), b.Get() // two of the five are enough for b
	if !reflect.DeepEqual(*x, Packet{}) || !reflect.DeepEqual(*y, Packet{}) {
		t.Fatalf("adopted packets not zeroed: %+v %+v", x, y)
	}
	if b.News != 0 || b.Reuses != 2 {
		t.Fatalf("news=%d reuses=%d, want 0 and 2: adopted packets are recycled ones", b.News, b.Reuses)
	}
	x.AppendINT(b, INTHop{QueueBytes: 3}) // and one INT extension
	if x.NumINT() != 1 || b.ExtsOut() != 1 {
		t.Fatalf("an adopted INT extension came with %d hops, %d out", x.NumINT(), b.ExtsOut())
	}
	b.Put(x)
	z := b.Get() // the free list is a stack: x again, not a third adopted packet
	if z != x {
		t.Fatal("Get reached past a freshly Put packet into the adopted ones")
	}
	b.Put(z)
	b.Put(y)
	if got := b.Release(); len(got.pkts) != 2 || len(got.sacks) != 0 || len(got.ints) != 1 {
		t.Fatalf("Release handed on %d packets, %d+%d extensions, want the 2 and 0+1 this pool used",
			len(got.pkts), len(got.sacks), len(got.ints))
	}
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// Audit mode covers adopted packets and extensions: a stale pointer into
// one is caught when it is taken again, two packets sharing an extension
// are caught at the second Put, and Release hands everything on without
// the stamps.
func TestPoolAuditCoversAdopted(t *testing.T) {
	a := NewPool()
	p, q := a.Get(), a.Get()
	withExts(a, p)
	a.Put(p)
	a.Put(q)
	b := NewPool()
	b.Adopt(a.Release())
	b.EnableAudit()
	got := b.Get()
	if (got != p && got != q) || got.Seq != 0 {
		t.Fatalf("audited Get of an adopted packet returned %+v", got)
	}
	withExts(b, got)
	if len(got.Sack()) != 1 || got.NumINT() != 1 {
		t.Fatalf("audited adopted extensions carry %v and %v", got.Sack(), got.INTHops())
	}
	b.Put(got)
	rel := b.Release()
	for _, pkt := range rel.pkts {
		if !reflect.DeepEqual(*pkt, Packet{}) {
			t.Fatalf("released packet still carries audit state: %+v", pkt)
		}
	}
	if len(rel.sacks) != 1 || len(rel.ints) != 1 || rel.sacks[0].n != 0 || !reflect.DeepEqual(*rel.ints[0], intExt{hops: rel.ints[0].hops}) {
		t.Fatalf("released extensions %+v %+v, want one of each, empty", rel.sacks, rel.ints)
	}

	c := NewPool()
	c.Adopt(Stock{pkts: []*Packet{p}})
	c.EnableAudit()
	p.Flow, p.Seq = 3, 77 // write through a pointer kept from the last run
	mustPanic(t, "Get of an adopted packet mutated on the free list", func() { c.Get() })

	// An extension written through a stale alias while on the free list.
	d := NewPool()
	d.Adopt(rel)
	d.EnableAudit()
	rel.sacks[0].n = 1
	mustPanic(t, "taking an adopted SACK extension mutated on the free list", func() { d.Get().SackBuf(d) })
	pkt := d.Get()
	pkt.AppendINT(d, INTHop{})
	ext := pkt.hops
	d.Put(pkt)
	ext.n = 2 // a write through a stale alias
	mustPanic(t, "taking an INT extension mutated on the free list", func() { d.Get().AppendINT(d, INTHop{}) })

	// Two packets sharing one extension: the second Put returns it twice.
	e := NewPool()
	e.EnableAudit()
	x, y := e.Get(), e.Get()
	x.AppendINT(e, INTHop{})
	y.hops = x.hops
	e.Put(x)
	mustPanic(t, "a double Put of an INT extension", func() { e.Put(y) })
}
