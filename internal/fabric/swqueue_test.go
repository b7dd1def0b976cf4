package fabric

import (
	"math/rand/v2"
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

// TestQueueFollowsLive pushes 30,000 packets, never more than 64 queued
// at once, through a host NIC and through a switch class queue. Each ring
// must stay within 128 slots, must grow at least once while wrapped, must
// hold no packet outside its live entries, and must pop what a plain
// slice pops — packet, size, ingress port, and the queue's bytes and red
// bytes after every step.
func TestQueueFollowsLive(t *testing.T) {
	const total, live = 30_000, 64
	s := sim.New()
	h := NewHost(s, 0)
	Connect(s, h, 0, &sink{id: 1}, 0, 40e9, sim.Microsecond)
	h.NICTx().Pause() // serve the NIC by hand
	var q swQueue
	nicPop := func() (*packet.Packet, int64, int) {
		p, sz := h.dequeue()
		return p, int64(sz), 0
	}
	for _, c := range []struct {
		name string
		f    *fifo
		push func(p *packet.Packet, sz int64, in int)
		pop  func() (*packet.Packet, int64, int)
		acct bool // bytes and red are kept
	}{
		{"host NIC", &h.nic, func(p *packet.Packet, _ int64, _ int) { h.Send(p) }, nicPop, false},
		{"switch queue", &q.fifo, q.push, q.popFront, true},
	} {
		rng := rand.New(rand.NewPCG(1, 2))
		marks := [3]packet.Mark{packet.Unimportant, packet.ImportantData, packet.ImportantData}
		var oracle []swEnt
		var bytes, red int64
		pushed, target, wrappedGrowth, peak := 0, 0, 0, 0
		for pushed < total || len(oracle) > 0 {
			// The depth wanders under a ceiling that rises slowly, so
			// the ring wraps before each time it grows.
			for len(oracle) == target && pushed < total {
				target = rng.IntN(min(live, 2+pushed/500) + 1)
			}
			if pushed == total {
				target = 0
			}
			if len(oracle) < target {
				p := mkPkt(int64(pushed), marks[rng.IntN(3)])
				p.Len = 100 + rng.IntN(1400)
				in := 0
				if c.acct {
					in = rng.IntN(7)
				}
				e := swEnt{pkt: p, sz: int32(p.WireSize()), red: p.Mark.Color() == packet.Red, in: uint16(in)}
				if c.f.n == len(c.f.buf) && c.f.head != 0 {
					wrappedGrowth++
				}
				c.push(p, int64(e.sz), in)
				oracle = append(oracle, e)
				peak = max(peak, len(oracle))
				bytes += int64(e.sz)
				if e.red {
					red += int64(e.sz)
				}
				pushed++
			} else {
				p, sz, in := c.pop()
				want := oracle[0]
				oracle = oracle[1:]
				if p != want.pkt || sz != int64(want.sz) || in != int(want.in) {
					t.Fatalf("%s: popped seq %d size %d in %d, want seq %d size %d in %d",
						c.name, p.Seq, sz, in, want.pkt.Seq, want.sz, want.in)
				}
				bytes -= int64(want.sz)
				if want.red {
					red -= int64(want.sz)
				}
			}
			if c.f.n != len(oracle) {
				t.Fatalf("%s: %d queued, want %d", c.name, c.f.n, len(oracle))
			}
			if c.acct && (q.bytes != bytes || q.red != red) {
				t.Fatalf("%s: bytes %d red %d, want %d and %d", c.name, q.bytes, q.red, bytes, red)
			}
			if len(c.f.buf) > 2*live {
				t.Fatalf("%s: ring of %d slots for at most %d live entries", c.name, len(c.f.buf), live)
			}
			for i := c.f.n; i < len(c.f.buf); i++ {
				if e := c.f.buf[(c.f.head+i)&(len(c.f.buf)-1)]; e != (swEnt{}) {
					t.Fatalf("%s: free slot holds %+v", c.name, e)
				}
			}
		}
		if p, _, _ := c.pop(); p != nil {
			t.Fatalf("%s: drained queue popped seq %d", c.name, p.Seq)
		}
		if wrappedGrowth == 0 {
			t.Fatalf("%s: the ring never grew while wrapped", c.name)
		}
		if c.f.peak != peak {
			t.Fatalf("%s: peak %d, want %d", c.name, c.f.peak, peak)
		}
	}
}

// TestSwQueueInterleavedAroundReset interleaves pushes and pops so the
// queue repeatedly empties mid-traffic, with red and green packets mixed
// to exercise the color accounting.
func TestSwQueueInterleavedAroundReset(t *testing.T) {
	var q swQueue
	seq := int64(0)
	next := int64(0)
	marks := [2]packet.Mark{packet.Unimportant, packet.ImportantData}
	for round := 0; round < 50; round++ {
		// Push a burst and drain it fully: the ring empties with its
		// head wherever the burst left it, and the next burst wraps.
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
		if q.bytes != 0 || q.red != 0 || q.n != 0 {
			t.Fatalf("round %d: empty queue holds bytes=%d red=%d n=%d",
				round, q.bytes, q.red, q.n)
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
