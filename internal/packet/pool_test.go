package packet

import (
	"reflect"
	"testing"
)

func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewPool()
	a := p.Get()
	if p.News != 1 || p.Reuses != 0 {
		t.Fatalf("counters after first Get: news=%d reuses=%d", p.News, p.Reuses)
	}
	a.Flow = 7
	a.Type = Ack
	a.Sack = []SackBlock{{0, 10}}
	a.AppendINT(INTHop{QueueBytes: 1})
	sack := a.Sack
	p.Put(a)

	b := p.Get()
	if b != a {
		t.Fatal("Get did not reuse the freed packet")
	}
	if p.Reuses != 1 || p.Puts != 1 {
		t.Fatalf("reuses = %d puts = %d, want 1/1", p.Reuses, p.Puts)
	}
	if b.Flow != 0 || b.Type != Data || b.Sack != nil || b.NumINT() != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", b)
	}
	// The old backing array must be untouched: an in-flight alias (trace
	// event, echoed INT) may still read it.
	if sack[0].End != 10 {
		t.Fatalf("freed packet's slice backing array was mutated: %+v", sack)
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

// A pool's free packets pass to the next pool zeroed, and only the ones
// the next pool had to draw on pass further: Release trims to the
// low-water mark.
func TestPoolAdoptReleaseTrimsToUse(t *testing.T) {
	a := NewPool()
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := a.Get()
		p.Flow, p.Seq = 9, int64(i+1)
		pkts = append(pkts, p)
	}
	for _, p := range pkts {
		a.Put(p)
	}
	handed := a.Release()
	if len(handed) != 5 || a.FreeLen() != 0 {
		t.Fatalf("Release handed %d packets and left %d, want 5 and 0", len(handed), a.FreeLen())
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
	b.Put(x)
	z := b.Get() // the free list is a stack: x again, not a third adopted packet
	if z != x {
		t.Fatal("Get reached past a freshly Put packet into the adopted ones")
	}
	b.Put(z)
	b.Put(y)
	if got := b.Release(); len(got) != 2 {
		t.Fatalf("Release handed on %d packets, want the 2 this pool used", len(got))
	}
}

// Audit mode covers adopted packets: a stale pointer into one is caught
// at Get, and Release hands packets on without the poison.
func TestPoolAuditCoversAdopted(t *testing.T) {
	a := NewPool()
	p, q := a.Get(), a.Get()
	a.Put(p)
	a.Put(q)
	b := NewPool()
	b.Adopt(a.Release())
	b.EnableAudit()
	got := b.Get()
	if (got != p && got != q) || got.Seq != 0 {
		t.Fatalf("audited Get of an adopted packet returned %+v", got)
	}
	b.Put(got)
	for _, pkt := range b.Release() {
		if !reflect.DeepEqual(*pkt, Packet{}) {
			t.Fatalf("released packet still carries audit state: %+v", pkt)
		}
	}

	c := NewPool()
	c.Adopt([]*Packet{p})
	c.EnableAudit()
	p.Flow, p.Seq = 3, 77 // write through a pointer kept from the last run
	defer func() {
		if recover() == nil {
			t.Fatal("Get of an adopted packet mutated on the free list did not panic")
		}
	}()
	c.Get()
}
