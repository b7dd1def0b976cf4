package fabric

import (
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// BenchmarkSwitchForwarding measures the end-to-end per-packet cost of
// the data plane: host NIC -> switch MMU -> egress -> delivery.
func BenchmarkSwitchForwarding(b *testing.B) {
	s := sim.New()
	cfg := SwitchConfig{Ports: 2, BufferBytes: 1 << 22, Alpha: 1, ECN: ECNStep, KEcn: 1 << 20}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	h := NewHost(s, 0)
	k := &sink{id: 1}
	Connect(s, h, 0, sw, 0, 400e9, sim.Microsecond)
	Connect(s, k, 0, sw, 1, 400e9, sim.Microsecond)
	sw.SetRoute(1, []int{1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Send(&packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Len: 1000})
		if i%256 == 255 {
			s.RunAll()
			k.got = k.got[:0]
		}
	}
	s.RunAll()
}

// BenchmarkSwitchForward measures the steady-state per-packet switch
// cost — route lookup, MMU admission, enqueue, dequeue — with packets
// recycled through a pool. This is the datapath the zero-allocation
// gate protects: any per-packet heap traffic fails CI.
func BenchmarkSwitchForward(b *testing.B) {
	s := sim.New()
	cfg := SwitchConfig{Ports: 2, BufferBytes: 1 << 22, Alpha: 1, ECN: ECNStep, KEcn: 1 << 20}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	pool := packet.NewPool()
	sw.SetPool(pool)
	h := NewHost(s, 0)
	k := &sink{id: 1}
	Connect(s, h, 0, sw, 0, 400e9, sim.Microsecond)
	Connect(s, k, 0, sw, 1, 400e9, sim.Microsecond)
	sw.SetRoute(1, []int{1})
	sw.Tx(1).Pause() // serve the queue by hand, without the event loop

	run := func(n int) {
		for i := 0; i < n; i++ {
			pkt := pool.Get()
			pkt.Flow = 1
			pkt.Dst = 1
			pkt.Type = packet.Data
			pkt.Len = 1000
			sw.Receive(pkt, 0)
			out, _ := sw.dequeue(1)
			if out == nil {
				b.Fatal("packet not forwarded")
			}
			pool.Put(out)
		}
	}
	run(512) // warm up the pool and queue capacity
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkHostDemux measures per-packet flow demultiplexing at the
// receiving host: one map lookup plus handler invocation and
// recycling. Gated at 0 allocs/op in CI.
func BenchmarkHostDemux(b *testing.B) {
	s := sim.New()
	h := NewHost(s, 0)
	pool := packet.NewPool()
	h.SetPool(pool)
	for f := packet.FlowID(1); f <= 64; f++ {
		h.Register(f, handlerFunc(func(p *packet.Packet) {}))
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			pkt := pool.Get()
			pkt.Flow = packet.FlowID(i&63) + 1
			pkt.Type = packet.Ack
			h.Receive(pkt, 0)
		}
	}
	run(512)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkColorAdmission isolates the MMU admission decision.
func BenchmarkColorAdmission(b *testing.B) {
	s := sim.New()
	cfg := SwitchConfig{Ports: 2, BufferBytes: 1 << 22, Alpha: 1, ColorThreshold: 1 << 18}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	h := NewHost(s, 0)
	k := &sink{id: 1}
	Connect(s, h, 0, sw, 0, 400e9, sim.Microsecond)
	Connect(s, k, 0, sw, 1, 400e9, sim.Microsecond)
	sw.SetRoute(1, []int{1})
	sw.Tx(1).Pause() // queue builds; admission exercises both branches
	marks := [2]packet.Mark{packet.Unimportant, packet.ImportantData}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.enqueue(&packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Len: 1000, Mark: marks[i%2]}, 0, 1)
		if sw.BufferUsed() > 1<<21 {
			b.StopTimer()
			sw.Tx(1).Resume()
			s.RunAll()
			sw.Tx(1).Pause()
			b.StartTimer()
		}
	}
}
