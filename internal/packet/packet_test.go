package packet

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestMarkColorMapping(t *testing.T) {
	// Only Unimportant travels red; everything TLT tags is protected.
	cases := []struct {
		m    Mark
		want Color
	}{
		{Unimportant, Red},
		{ImportantData, Green},
		{ImportantEcho, Green},
		{ImportantClockData, Green},
		{ImportantClockEcho, Green},
		{ControlImportant, Green},
	}
	for _, c := range cases {
		if got := c.m.Color(); got != c.want {
			t.Errorf("%v.Color() = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestWireSize(t *testing.T) {
	p := &Packet{Type: Data, Len: 1000}
	if got := p.WireSize(); got != 1048 {
		t.Fatalf("WireSize = %d, want 1048", got)
	}
	ack := &Packet{Type: Ack}
	if got := ack.WireSize(); got != HeaderBytes {
		t.Fatalf("pure ACK WireSize = %d, want %d", got, HeaderBytes)
	}
	// INT hops consume header space.
	p.AppendINT(nil, INTHop{})
	p.AppendINT(nil, INTHop{})
	if got := p.WireSize(); got != 1048+16 {
		t.Fatalf("WireSize with 2 INT hops = %d, want %d", got, 1048+16)
	}
}

func TestINTInlineAndOverflow(t *testing.T) {
	p := &Packet{}
	for i := 0; i < MaxINTHops; i++ {
		if p.AppendINT(nil, INTHop{QueueBytes: int64(i)}) {
			t.Fatalf("hop %d spilled before MaxINTHops", i)
		}
	}
	if p.NumINT() != MaxINTHops {
		t.Fatalf("NumINT = %d, want %d", p.NumINT(), MaxINTHops)
	}
	// One past capacity spills to the overflow slice, preserving order.
	if !p.AppendINT(nil, INTHop{QueueBytes: 99}) {
		t.Fatal("overflow append did not report a spill")
	}
	hops := p.INTHops()
	if len(hops) != MaxINTHops+1 {
		t.Fatalf("len(INTHops) = %d, want %d", len(hops), MaxINTHops+1)
	}
	for i := 0; i < MaxINTHops; i++ {
		if hops[i].QueueBytes != int64(i) {
			t.Fatalf("hop %d = %+v after spill", i, hops[i])
		}
	}
	if hops[MaxINTHops].QueueBytes != 99 {
		t.Fatalf("spilled hop = %+v", hops[MaxINTHops])
	}
}

func TestCopyINTFrom(t *testing.T) {
	pool := NewPool()
	src := pool.Get()
	src.AppendINT(pool, INTHop{QueueBytes: 1})
	src.AppendINT(pool, INTHop{QueueBytes: 2})
	ack := pool.Get()
	ack.CopyINTFrom(pool, src)
	// The copy must not alias the source: recycling src, and the next
	// packet stamping the extension src gave back, may not disturb the
	// echoed hops.
	pool.Put(src)
	pool.Get().AppendINT(pool, INTHop{QueueBytes: 99})
	hops := ack.INTHops()
	if len(hops) != 2 || hops[0].QueueBytes != 1 || hops[1].QueueBytes != 2 {
		t.Fatalf("echoed hops = %+v", hops)
	}
	pool.Put(ack) // with audit on, an aliased extension panics here

	// Same property when the source spilled to the overflow slice.
	big := &Packet{}
	for i := 0; i < MaxINTHops+2; i++ {
		big.AppendINT(nil, INTHop{QueueBytes: int64(i)})
	}
	ack2 := &Packet{}
	ack2.CopyINTFrom(nil, big)
	big.hops.ov[0].QueueBytes = 99
	hops = ack2.INTHops()
	if len(hops) != MaxINTHops+2 {
		t.Fatalf("echoed spilled hops = %d, want %d", len(hops), MaxINTHops+2)
	}
	for i, h := range hops {
		if h.QueueBytes != int64(i) {
			t.Fatalf("echoed hop %d = %+v", i, h)
		}
	}

	// An INT-free source costs the echo nothing.
	plain := &Packet{}
	plain.CopyINTFrom(nil, &Packet{})
	if plain.hops != nil {
		t.Fatal("echo of an INT-free packet took an extension")
	}
}

// TestEchoUnderAuditKeepsExtensionsApart is TestCopyINTFrom's aliasing
// check under audit mode, on HPCC's echo path: an ACK that shared the data
// packet's INT extension would return it twice.
func TestEchoUnderAuditKeepsExtensionsApart(t *testing.T) {
	pool := NewPool()
	pool.EnableAudit()
	for i := 0; i < 3; i++ {
		data := pool.Get()
		for h := 0; h < 3; h++ {
			data.AppendINT(pool, INTHop{QueueBytes: int64(h)})
		}
		ack := pool.Get()
		ack.CopyINTFrom(pool, data)
		ack.SetSack(append(ack.SackBuf(pool), SackBlock{1, 2}))
		pool.Put(data)
		pool.Put(ack)
	}
	if pool.ExtsOut() != 0 || pool.exts != 3 {
		t.Fatalf("%d extensions made, %d out; want 3 (two INT, one SACK) and 0", pool.exts, pool.ExtsOut())
	}
}

// TestINTEchoAllocatesNothing: an HPCC data packet stamped at three hops
// and echoed on a recycled ACK runs entirely on pooled packets and
// extensions.
func TestINTEchoAllocatesNothing(t *testing.T) {
	pool := NewPool()
	round := func() {
		data := pool.Get()
		for h := 0; h < 3; h++ {
			data.AppendINT(pool, INTHop{QueueBytes: int64(h)})
		}
		ack := pool.Get()
		ack.CopyINTFrom(pool, data)
		pool.Put(data)
		if ack.NumINT() != 3 || ack.WireSize() != HeaderBytes+24 {
			t.Fatalf("echo carries %d hops, %d bytes", ack.NumINT(), ack.WireSize())
		}
		pool.Put(ack)
	}
	round() // the first round makes the packets and extensions
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a stamped and echoed INT stack allocated %v times", allocs)
	}
}

// TestSnapshotOwnsExtensions: a snapshot keeps its blocks and hops after
// the packet and its extensions are recycled and written again.
func TestSnapshotOwnsExtensions(t *testing.T) {
	pool := NewPool()
	p := pool.Get()
	p.SetSack(append(p.SackBuf(pool), SackBlock{1, 2}, SackBlock{5, 9}))
	p.AppendINT(pool, INTHop{QueueBytes: 7})
	snap := p.Snapshot()
	pool.Put(p)
	q := pool.Get()
	q.SetSack(append(q.SackBuf(pool), SackBlock{40, 50}))
	q.AppendINT(pool, INTHop{QueueBytes: 8})
	if s, h := snap.Sack(), snap.INTHops(); len(s) != 2 || s[1] != (SackBlock{5, 9}) || len(h) != 1 || h[0].QueueBytes != 7 {
		t.Fatalf("snapshot reads %v and %v after its packet was recycled", s, h)
	}
}

// TestPacketHeader pins the layout the split is for: the header fits the
// 80-byte size class, and every field a switch or transport reads sits in
// its first 64 bytes; only the extension pointers lie past them.
func TestPacketHeader(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 80 {
		t.Fatalf("Packet is %d bytes, want at most 80", size)
	}
	typ := reflect.TypeOf(Packet{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if end := f.Offset + f.Type.Size(); end > 64 && f.Name != "sack" && f.Name != "hops" {
			t.Errorf("field %s ends at byte %d, past the first 64", f.Name, end)
		}
	}
}

func TestIsControl(t *testing.T) {
	for _, typ := range []Type{Ack, Nack, Cnp, Pause, Resume} {
		if !(&Packet{Type: typ}).IsControl() {
			t.Errorf("%v should be control", typ)
		}
	}
	if (&Packet{Type: Data}).IsControl() {
		t.Error("Data should not be control")
	}
}

func TestImportant(t *testing.T) {
	if (&Packet{Mark: Unimportant}).Important() {
		t.Error("unimportant packet reported important")
	}
	if !(&Packet{Mark: ImportantData}).Important() {
		t.Error("ImportantData not reported important")
	}
}

func TestStringers(t *testing.T) {
	// Every enum value needs a printable name for traces.
	for _, typ := range []Type{Data, Ack, Nack, Cnp, Pause, Resume} {
		if typ.String() == "?" {
			t.Errorf("Type %d has no name", typ)
		}
	}
	for _, m := range []Mark{Unimportant, ImportantData, ImportantEcho, ImportantClockData, ImportantClockEcho, ControlImportant} {
		if m.String() == "?" {
			t.Errorf("Mark %d has no name", m)
		}
	}
}
