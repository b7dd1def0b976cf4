package fabric

import (
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// sink is a Device that records everything it receives.
type sink struct {
	id   packet.NodeID
	got  []*packet.Packet
	tx   *Tx
	gotP []sim.Time
}

func (k *sink) ID() packet.NodeID { return k.id }
func (k *sink) Receive(pkt *packet.Packet, inPort int) {
	k.got = append(k.got, pkt)
	k.gotP = append(k.gotP, 0)
}
func (k *sink) attach(port int, tx *Tx) { k.tx = tx }

func TestSerTime(t *testing.T) {
	// 1048 bytes at 40 Gbps: 1048*8/40 = 209.6 ns, rounded up.
	if got := SerTime(1048, 40e9); got != 210 {
		t.Fatalf("SerTime = %v, want 210ns", got)
	}
	if got := SerTime(1500, 10e9); got != 1200 {
		t.Fatalf("SerTime = %v, want 1200ns", got)
	}
}

func data(flow packet.FlowID, dst packet.NodeID, length int, mark packet.Mark) *packet.Packet {
	return &packet.Packet{Flow: flow, Dst: dst, Type: packet.Data, Len: length, Mark: mark}
}

// oneSwitch builds host0 -> sw -> sink topology for MMU tests.
func oneSwitch(t *testing.T, cfg SwitchConfig) (*sim.Sim, *Host, *Switch, *sink) {
	t.Helper()
	s := sim.New()
	cfg.Ports = 2
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	h := NewHost(s, 0)
	k := &sink{id: 1}
	Connect(s, h, 0, sw, 0, 40e9, sim.Microsecond)
	Connect(s, k, 0, sw, 1, 40e9, sim.Microsecond)
	sw.SetRoute(1, []int{1})
	sw.SetRoute(0, []int{0})
	return s, h, sw, k
}

func TestSwitchForwardsAndPreservesOrder(t *testing.T) {
	s, h, _, k := oneSwitch(t, SwitchConfig{BufferBytes: 1 << 20})
	for i := 0; i < 50; i++ {
		p := data(1, 1, 1000, packet.Unimportant)
		p.Seq = int64(i)
		h.Send(p)
	}
	s.RunAll()
	if len(k.got) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(k.got))
	}
	for i, p := range k.got {
		if p.Seq != int64(i) {
			t.Fatalf("reordering: position %d has seq %d", i, p.Seq)
		}
	}
}

func TestColorAwareDropping(t *testing.T) {
	// Red packets may not grow the queue beyond K; green packets pass.
	// Block the egress by pausing the sink-facing transmitter.
	s, h, sw, k := oneSwitch(t, SwitchConfig{
		BufferBytes:    1 << 20,
		ColorThreshold: 10_000,
	})
	sw.Tx(1).Pause()
	for i := 0; i < 30; i++ {
		h.Send(data(1, 1, 1000, packet.Unimportant))
	}
	for i := 0; i < 10; i++ {
		h.Send(data(1, 1, 1000, packet.ImportantData))
	}
	s.RunAll()
	if sw.Ctr.DropRedColor == 0 {
		t.Fatal("expected red drops at color threshold")
	}
	if sw.Ctr.DropGreen != 0 {
		t.Fatalf("green packets dropped: %d", sw.Ctr.DropGreen)
	}
	// Red occupancy bounded by K (allow one packet of slack at the
	// admission boundary).
	if red := sw.MaxRedQueueBytes(1); red > 10_000+1048 {
		t.Fatalf("red queue reached %d, exceeds K", red)
	}
	// All 10 green packets are queued beyond K.
	if q := sw.QueueBytes(1); q < 10*1048 {
		t.Fatalf("queue %d should hold all greens", q)
	}
	sw.Tx(1).Resume()
	s.RunAll()
	green := 0
	for _, p := range k.got {
		if p.Mark == packet.ImportantData {
			green++
		}
	}
	if green != 10 {
		t.Fatalf("delivered %d green packets, want all 10", green)
	}
}

func TestDynamicThreshold(t *testing.T) {
	// With alpha=1 a single congested queue can use at most half the
	// buffer: Q >= alpha * (B - used) blocks further growth.
	s, h, sw, _ := oneSwitch(t, SwitchConfig{BufferBytes: 100_000, Alpha: 1})
	sw.Tx(1).Pause()
	for i := 0; i < 200; i++ {
		h.Send(data(1, 1, 1000, packet.Unimportant))
	}
	s.RunAll()
	if sw.Ctr.DropDynamic == 0 {
		t.Fatal("expected dynamic-threshold drops")
	}
	if q := sw.QueueBytes(1); q < 45_000 || q > 55_000 {
		t.Fatalf("queue = %d, want ~B/2", q)
	}
	if sw.BufferUsed() > 100_000 {
		t.Fatalf("buffer accounting exceeded capacity: %d", sw.BufferUsed())
	}
}

func TestBufferAccountingReturnsToZero(t *testing.T) {
	s, h, sw, k := oneSwitch(t, SwitchConfig{BufferBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		h.Send(data(1, 1, 777, packet.Unimportant))
	}
	s.RunAll()
	if sw.BufferUsed() != 0 {
		t.Fatalf("buffer used = %d after drain, want 0", sw.BufferUsed())
	}
	if len(k.got) != 100 {
		t.Fatalf("delivered %d", len(k.got))
	}
}

func TestECNStepMarking(t *testing.T) {
	s, h, sw, k := oneSwitch(t, SwitchConfig{
		BufferBytes: 1 << 20,
		ECN:         ECNStep,
		KEcn:        5_000,
	})
	sw.Tx(1).Pause()
	for i := 0; i < 20; i++ {
		p := data(1, 1, 1000, packet.Unimportant)
		p.ECT = true
		h.Send(p)
	}
	s.RunAll()
	sw.Tx(1).Resume()
	s.RunAll()
	marked := 0
	for _, p := range k.got {
		if p.CE {
			marked++
		}
	}
	// First ~4 packets fit under 5kB; the rest must be marked.
	if marked < 14 || marked > 16 {
		t.Fatalf("marked %d of 20, want ~15", marked)
	}
	if int(sw.Ctr.ECNMarked) != marked {
		t.Fatalf("counter %d != observed %d", sw.Ctr.ECNMarked, marked)
	}
	// Non-ECT packets are never marked.
	k.got = nil
	sw.Tx(1).Pause()
	for i := 0; i < 20; i++ {
		h.Send(data(1, 1, 1000, packet.Unimportant))
	}
	s.RunAll()
	sw.Tx(1).Resume()
	s.RunAll()
	for _, p := range k.got {
		if p.CE {
			t.Fatal("non-ECT packet marked CE")
		}
	}
}

func TestECNRedMarkingProbability(t *testing.T) {
	s, h, sw, k := oneSwitch(t, SwitchConfig{
		BufferBytes: 1 << 20,
		ECN:         ECNRed,
		KMin:        2_000,
		KMax:        10_000,
		PMax:        0.5,
	})
	sw.Tx(1).Pause()
	for i := 0; i < 60; i++ {
		p := data(1, 1, 1000, packet.Unimportant)
		p.ECT = true
		h.Send(p)
	}
	s.RunAll()
	sw.Tx(1).Resume()
	s.RunAll()
	marked := 0
	for _, p := range k.got {
		if p.CE {
			marked++
		}
	}
	// Everything above KMax (~50 packets) has probability 1.
	if marked < 45 {
		t.Fatalf("marked %d, want >= 45 (queue mostly above KMax)", marked)
	}
	if !k.got[0].CE == false && k.got[0].CE {
		t.Fatal("first packet under KMin should not be marked")
	}
}

func TestPFCPauseResume(t *testing.T) {
	s, h, sw, k := oneSwitch(t, SwitchConfig{
		BufferBytes: 1 << 20,
		PFC:         true,
		XOff:        8_000,
		XOn:         6_000,
	})
	sw.Tx(1).Pause() // block egress so ingress accounting builds
	for i := 0; i < 30; i++ {
		h.Send(data(1, 1, 1000, packet.Unimportant))
	}
	s.Run(100 * sim.Microsecond)
	if sw.Ctr.PauseFrames == 0 {
		t.Fatal("expected a PAUSE frame")
	}
	if !h.NICTx().Paused() {
		t.Fatal("host NIC should be paused")
	}
	// Nothing was dropped: PFC is lossless.
	if sw.Ctr.TotalDrops() != 0 {
		t.Fatalf("drops under PFC: %+v", sw.Ctr)
	}
	sw.Tx(1).Resume()
	s.RunAll()
	if sw.Ctr.ResumeFrames == 0 {
		t.Fatal("expected a RESUME frame")
	}
	if h.NICTx().Paused() {
		t.Fatal("host NIC should have resumed")
	}
	if len(k.got) != 30 {
		t.Fatalf("delivered %d packets, want all 30", len(k.got))
	}
	if h.NICTx().PausedTotal == 0 {
		t.Fatal("paused time not accounted")
	}
}

func TestPFCHeadOfLineBlocking(t *testing.T) {
	// The defining PFC pathology: a congested egress port pauses the
	// ingress, blocking a victim flow headed to an idle egress port.
	s := sim.New()
	cfg := SwitchConfig{Ports: 3, BufferBytes: 1 << 20, Alpha: 1, PFC: true, XOff: 8_000, XOn: 6_000}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	h := NewHost(s, 0)
	hot := &sink{id: 1}
	victim := &sink{id: 2}
	Connect(s, h, 0, sw, 0, 40e9, sim.Microsecond)
	Connect(s, hot, 0, sw, 1, 40e9, sim.Microsecond)
	Connect(s, victim, 0, sw, 2, 40e9, sim.Microsecond)
	sw.SetRoute(1, []int{1})
	sw.SetRoute(2, []int{2})

	sw.Tx(1).Pause() // external congestion on the hot port
	for i := 0; i < 20; i++ {
		h.Send(data(1, 1, 1000, packet.Unimportant))
	}
	s.Run(50 * sim.Microsecond)
	// Victim traffic now cannot enter: the host NIC is paused.
	h.Send(data(2, 2, 1000, packet.Unimportant))
	s.Run(200 * sim.Microsecond)
	if len(victim.got) != 0 {
		t.Fatal("victim packet delivered despite HoL blocking")
	}
	sw.Tx(1).Resume()
	s.RunAll()
	if len(victim.got) != 1 {
		t.Fatalf("victim packet lost: got %d", len(victim.got))
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	s := sim.New()
	cfg := SwitchConfig{Ports: 4, BufferBytes: 1 << 20, Alpha: 1}
	sw := NewSwitch(s, 100, sim.NewRNG(1), cfg)
	group := []int{1, 2, 3}
	seen := map[int]bool{}
	for flow := packet.FlowID(1); flow <= 64; flow++ {
		first := sw.ecmpHash(flow, len(group))
		seen[first] = true
		for i := 0; i < 10; i++ {
			if sw.ecmpHash(flow, len(group)) != first {
				t.Fatal("ECMP hash not deterministic per flow")
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("ECMP used %d of 3 paths over 64 flows", len(seen))
	}
}

func TestINTStamping(t *testing.T) {
	s, h, _, k := oneSwitch(t, SwitchConfig{BufferBytes: 1 << 20, INT: true})
	p := data(1, 1, 1000, packet.Unimportant)
	h.Send(p)
	s.RunAll()
	if len(k.got) != 1 || k.got[0].NumINT() != 1 {
		t.Fatalf("INT hops = %d, want 1", k.got[0].NumINT())
	}
	hop := k.got[0].INTHops()[0]
	if hop.RateBps != 40e9 || hop.TxBytes == 0 {
		t.Fatalf("INT hop = %+v", hop)
	}
}

func TestHostDemux(t *testing.T) {
	s := sim.New()
	h := NewHost(s, 0)
	other := &sink{id: 1}
	Connect(s, h, 0, other, 0, 40e9, sim.Microsecond)

	got := map[packet.FlowID]int{}
	h.Register(7, handlerFunc(func(p *packet.Packet) { got[7]++ }))
	h.Register(8, handlerFunc(func(p *packet.Packet) { got[8]++ }))
	h.Receive(&packet.Packet{Flow: 7, Type: packet.Ack}, 0)
	h.Receive(&packet.Packet{Flow: 8, Type: packet.Ack}, 0)
	h.Receive(&packet.Packet{Flow: 9, Type: packet.Ack}, 0) // unknown: dropped
	if got[7] != 1 || got[8] != 1 {
		t.Fatalf("demux got %v", got)
	}
	h.Unregister(8)
	h.Receive(&packet.Packet{Flow: 8, Type: packet.Ack}, 0)
	if got[8] != 1 {
		t.Fatal("unregistered flow still handled")
	}
}

type handlerFunc func(*packet.Packet)

func (f handlerFunc) Handle(p *packet.Packet) { f(p) }

func TestHostNICFIFO(t *testing.T) {
	s := sim.New()
	h := NewHost(s, 0)
	k := &sink{id: 1}
	Connect(s, h, 0, k, 0, 40e9, sim.Microsecond)
	for i := 0; i < 2000; i++ {
		p := &packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Seq: int64(i), Len: 100}
		h.Send(p)
	}
	if h.QueuedPackets() == 0 {
		t.Fatal("NIC backlog expected")
	}
	s.RunAll()
	if len(k.got) != 2000 {
		t.Fatalf("delivered %d", len(k.got))
	}
	for i, p := range k.got {
		if p.Seq != int64(i) {
			t.Fatal("NIC reordered packets")
		}
	}
	if p := k.got[0]; p.Src != 0 {
		t.Fatalf("Send must stamp Src; got %d", p.Src)
	}
}

func TestPausedClockAccounting(t *testing.T) {
	s := sim.New()
	h := NewHost(s, 0)
	k := &sink{id: 1}
	atx, _ := Connect(s, h, 0, k, 0, 40e9, sim.Microsecond)
	atx.Pause()
	s.Post(100*sim.Microsecond, func() { atx.Resume() })
	s.RunAll()
	if atx.PausedTotal != 100*sim.Microsecond {
		t.Fatalf("paused total = %v", atx.PausedTotal)
	}
	// FinishPausedClock folds an open interval.
	atx.Pause()
	s.Post(s.Now()+50*sim.Microsecond, func() {})
	s.RunAll()
	atx.FinishPausedClock()
	if atx.PausedTotal != 150*sim.Microsecond {
		t.Fatalf("paused total = %v, want 150us", atx.PausedTotal)
	}
}

// Host buffers pass from one run's host to the next through a Mem: the
// next host sees nothing of the last one's flows or backlog, and grows
// nothing the last one already grew.
func TestHostBuffersRecycleClean(t *testing.T) {
	var m Mem
	s := sim.New()
	a := NewHost(s, 0)
	Connect(s, a, 0, &sink{id: 1}, 0, 40e9, sim.Microsecond)
	hits := 0
	for f := packet.FlowID(1); f <= 600; f++ {
		a.Register(f, handlerFunc(func(*packet.Packet) { hits++ }))
	}
	a.Unregister(17)
	for i := 0; i < 100; i++ {
		a.Send(&packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Len: 100})
	}
	a.Release(&m) // backlog still queued

	s2 := sim.New()
	b := NewHost(s2, 0)
	k := &sink{id: 1}
	Connect(s2, b, 0, k, 0, 40e9, sim.Microsecond)
	b.Adopt(&m)
	if b.QueuedPackets() != 0 {
		t.Fatalf("adopted NIC queue holds %d packets", b.QueuedPackets())
	}
	for f := packet.FlowID(1); f <= 600; f++ {
		b.Receive(&packet.Packet{Flow: f, Type: packet.Ack}, 0)
	}
	if hits != 0 {
		t.Fatalf("%d packets reached handlers the previous host registered", hits)
	}
	allocs := testing.AllocsPerRun(1, func() {
		b.Register(600, handlerFunc(func(*packet.Packet) { hits++ }))
		b.Unregister(600)
	})
	if allocs > 1 { // the handlerFunc closure
		t.Fatalf("registering within recycled capacity allocated %v times", allocs)
	}
	b.Register(300, handlerFunc(func(*packet.Packet) { hits++ }))
	for f := packet.FlowID(1); f <= 600; f++ {
		b.Receive(&packet.Packet{Flow: f, Type: packet.Ack}, 0)
	}
	if hits != 1 {
		t.Fatalf("%d handler calls, want 1: only flow 300 is registered", hits)
	}
	b.Send(&packet.Packet{Flow: 300, Dst: 1, Type: packet.Data, Len: 100})
	s2.RunAll()
	if len(k.got) != 1 {
		t.Fatalf("sink got %d packets, want 1 (none of the previous host's backlog)", len(k.got))
	}
}

// A buffer follows what the last run used: the NIC and switch queues a
// burst grew are handed on for as long as each run fills a quarter of
// them, and dropped — their place in the Mem kept — by the first run that
// does not, so one incast does not stay with its port for a whole grid.
func TestBuffersFollowLastRun(t *testing.T) {
	var m Mem
	// run sends burst packets at once through a 40:1 bottleneck and
	// returns the capacities its host and bottleneck queue adopted.
	run := func(burst int) (nic, egress int) {
		s := sim.New()
		sw := NewSwitch(s, 100, sim.NewRNG(1), SwitchConfig{Ports: 2, Alpha: 1, BufferBytes: 1 << 30})
		h, k := NewHost(s, 0), &sink{id: 1}
		Connect(s, h, 0, sw, 0, 40e9, sim.Microsecond)
		Connect(s, k, 0, sw, 1, 1e9, sim.Microsecond)
		sw.SetRoute(1, []int{1})
		h.Adopt(&m)
		sw.Adopt(&m)
		nic, egress = cap(h.queue), cap(sw.ports[1].qs[0].queue)
		for i := 0; i < burst; i++ {
			h.Send(data(1, 1, 1000, packet.Unimportant))
		}
		s.RunAll()
		if len(k.got) != burst {
			t.Fatalf("burst of %d: sink got %d", burst, len(k.got))
		}
		sw.Release(&m)
		h.Release(&m)
		if len(m.hosts) != 1 || len(m.queues) != len(sw.ports)*len(sw.ports[0].qs) {
			t.Fatalf("released %d host and %d queue buffers", len(m.hosts), len(m.queues))
		}
		return nic, egress
	}
	if nic, egress := run(3000); nic != 0 || egress != 0 {
		t.Fatalf("first run adopted capacity %d/%d from an empty Mem", nic, egress)
	}
	nic, egress := run(1000) // a third of the burst: still worth keeping
	if nic < 3000 || egress < 2000 {
		t.Fatalf("second run adopted capacity %d/%d, want the first run's backlog (3000/~2900)", nic, egress)
	}
	if n, e := run(10); n != nic || e != egress {
		t.Fatalf("third run adopted capacity %d/%d, want %d/%d again", n, e, nic, egress)
	}
	if n, e := run(10); n != 0 || e != 0 {
		t.Fatalf("fourth run adopted capacity %d/%d: a run of 10 packets handed on buffers for %d", n, e, nic)
	}
}
