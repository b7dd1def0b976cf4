package fabric

import (
	"testing"
	"unsafe"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// mkPkt builds a data packet whose wire size and color are known, for
// byte-accounting checks against swQueue.
func mkPkt(seq int64, mark packet.Mark) *packet.Packet {
	return &packet.Packet{Flow: 1, Type: packet.Data, Seq: seq, Len: 1000, Mark: mark}
}

// TestSwEntSize: a queue entry carries the ingress port in what was its
// padding, so the FIFO entry stays 16 bytes.
func TestSwEntSize(t *testing.T) {
	if size := unsafe.Sizeof(swEnt{}); size != 16 {
		t.Fatalf("swEnt is %d bytes, want 16", size)
	}
}

// TestSwQueueShiftCompaction drives the pop index past the 1024
// threshold with a longer tail still queued, forcing the in-place shift
// path, and verifies FIFO order and byte accounting survive it.
func TestSwQueueShiftCompaction(t *testing.T) {
	var q swQueue
	const total = 3000
	for i := 0; i < total; i++ {
		p := mkPkt(int64(i), packet.Unimportant)
		q.push(p, int64(p.WireSize()), i%7)
	}
	wantBytes := q.bytes
	perPkt := wantBytes / total

	// Pop just past the shift threshold: pop hits 1025 with 2x tail
	// still queued only once enough have drained; walk until the shift
	// has demonstrably fired.
	popped := 0
	for popped < 2000 {
		p, sz, in := q.popFront()
		if p == nil {
			t.Fatalf("queue empty after %d pops", popped)
		}
		if in != popped%7 {
			t.Fatalf("pop %d returned ingress %d, want %d", popped, in, popped%7)
		}
		if p.Seq != int64(popped) {
			t.Fatalf("pop %d returned seq %d: FIFO order broken", popped, p.Seq)
		}
		if sz != perPkt {
			t.Fatalf("pop %d size = %d, want %d", popped, sz, perPkt)
		}
		popped++
	}
	if q.pop > 1024 {
		t.Fatalf("pop index %d never compacted", q.pop)
	}
	if q.bytes != wantBytes-int64(popped)*perPkt {
		t.Fatalf("bytes = %d after %d pops, want %d", q.bytes, popped, wantBytes-int64(popped)*perPkt)
	}
	// Drain the rest: order must continue exactly where it left off.
	for ; popped < total; popped++ {
		p, _, _ := q.popFront()
		if p == nil || p.Seq != int64(popped) {
			t.Fatalf("post-shift pop %d = %+v", popped, p)
		}
	}
	if p, _, _ := q.popFront(); p != nil {
		t.Fatal("queue should be empty")
	}
	if q.bytes != 0 || q.red != 0 {
		t.Fatalf("drained queue has bytes=%d red=%d", q.bytes, q.red)
	}
}

// TestSwQueueInterleavedAroundReset interleaves pushes and pops so the
// queue repeatedly empties (the q.queue[:0] reset) mid-traffic, with
// red and green packets mixed to exercise the color accounting.
func TestSwQueueInterleavedAroundReset(t *testing.T) {
	var q swQueue
	seq := int64(0)
	next := int64(0)
	marks := [2]packet.Mark{packet.Unimportant, packet.ImportantData}
	for round := 0; round < 50; round++ {
		// Push a burst, drain it fully (hits the reset), then push one
		// more and drain again: the reset boundary is crossed twice.
		for i := 0; i < 7; i++ {
			p := mkPkt(seq, marks[seq%2])
			q.push(p, int64(p.WireSize()), 0)
			seq++
		}
		for {
			p, _, _ := q.popFront()
			if p == nil {
				break
			}
			if p.Seq != next {
				t.Fatalf("round %d: got seq %d, want %d", round, p.Seq, next)
			}
			next++
		}
		if q.bytes != 0 || q.red != 0 || q.pop != 0 || len(q.queue) != 0 {
			t.Fatalf("round %d: reset left bytes=%d red=%d pop=%d len=%d",
				round, q.bytes, q.red, q.pop, len(q.queue))
		}
	}
	if next != seq {
		t.Fatalf("popped %d of %d pushed", next, seq)
	}
	// High-water marks survive resets (they are per-run maxima).
	if q.maxBytes == 0 || q.maxRedBytes == 0 {
		t.Fatalf("high-water marks lost: max=%d maxRed=%d", q.maxBytes, q.maxRedBytes)
	}
}

// countingHandler recycles nothing and copies nothing — the host owns
// delivery and recycling.
type countingHandler struct{ n int }

func (c *countingHandler) Handle(pkt *packet.Packet) { c.n++ }

// TestPoolReuseInvariantsUnderTraffic runs real fabric traffic — color
// drops, PFC pause/resume frames, normal delivery — over an
// audit-enabled pool. The audit hook panics on a double Put or a
// use-after-put, so surviving the run IS the assertion; afterwards
// every allocation must be back on the free list (no leaks).
func TestPoolReuseInvariantsUnderTraffic(t *testing.T) {
	s := sim.New()
	pool := packet.NewPool()
	pool.EnableAudit()

	cfg := SwitchConfig{
		Ports: 2, BufferBytes: 1 << 20, Alpha: 1,
		ColorThreshold: 3_000, // force red color drops under the burst
		PFC:            true,  // force PAUSE/RESUME control frames
		XOff:           8_000, XOn: 2_000,
	}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	sw.SetPool(pool)
	src := NewHost(s, 0)
	src.SetPool(pool)
	dst := NewHost(s, 1)
	dst.SetPool(pool)
	Connect(s, src, 0, sw, 0, 40e9, sim.Microsecond)
	Connect(s, dst, 0, sw, 1, 4e9, sim.Microsecond) // slow egress: queue builds
	sw.SetRoute(1, []int{1})

	h := &countingHandler{}
	dst.Register(1, h)

	marks := [4]packet.Mark{packet.Unimportant, packet.Unimportant, packet.Unimportant, packet.ImportantData}
	for i := 0; i < 2000; i++ {
		pkt := src.NewPacket()
		pkt.Flow = 1
		pkt.Dst = 1
		pkt.Type = packet.Data
		pkt.Len = 1000
		pkt.Seq = int64(i)
		pkt.Mark = marks[i%4]
		src.Send(pkt)
	}
	s.RunAll()

	if h.n == 0 {
		t.Fatal("no packets delivered")
	}
	if sw.Ctr.DropRedColor == 0 {
		t.Fatal("scenario produced no color drops; invariant not exercised")
	}
	if sw.Ctr.PauseFrames == 0 || sw.Ctr.ResumeFrames == 0 {
		t.Fatalf("scenario produced no PFC frames (pause=%d resume=%d)",
			sw.Ctr.PauseFrames, sw.Ctr.ResumeFrames)
	}
	// Quiescent balance: every packet ever handed out was recycled
	// exactly once — drops and control frames included, or this leaks.
	handedOut := pool.News + pool.Reuses
	if pool.Puts != handedOut {
		t.Fatalf("pool leak: %d gets vs %d puts", handedOut, pool.Puts)
	}
	if got := uint64(pool.FreeLen()); got != pool.News {
		t.Fatalf("free list holds %d of %d allocations", got, pool.News)
	}
}

// TestPoolAuditCatchesDoublePut proves the audit hook the invariant test
// relies on actually fires: recycling the same packet twice must panic.
func TestPoolAuditCatchesDoublePut(t *testing.T) {
	pool := packet.NewPool()
	pool.EnableAudit()
	pkt := pool.Get()
	pool.Put(pkt)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic under audit")
		}
	}()
	pool.Put(pkt)
}

// TestPoolAuditCatchesUseAfterPut proves the poison canary fires when a
// freed packet is written through a stale pointer before reuse.
func TestPoolAuditCatchesUseAfterPut(t *testing.T) {
	pool := packet.NewPool()
	pool.EnableAudit()
	pkt := pool.Get()
	pool.Put(pkt)
	pkt.Seq = 42 // stale write while on the free list
	defer func() {
		if recover() == nil {
			t.Fatal("use-after-put did not panic under audit")
		}
	}()
	pool.Get()
}
