package tcp

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

func TestDCTCPAlphaRisesUnderCongestion(t *testing.T) {
	s, n := starNet(t, 3, fabric.SwitchConfig{ECN: fabric.ECNStep, KEcn: 50_000})
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	var senders []*Sender
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 50_000_000}
		c := StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
		senders = append(senders, c.Sender)
	}
	s.Run(5 * sim.Millisecond)
	for i, snd := range senders {
		if snd.alpha <= 0 {
			t.Fatalf("sender %d alpha = %v, want > 0 under persistent marking", i, snd.alpha)
		}
		// cwnd must be bounded: with K=50kB, the window cannot grow
		// unbounded as it would for plain TCP.
		if snd.cwnd > 2_000_000 {
			t.Fatalf("sender %d cwnd = %v, DCTCP failed to throttle", i, snd.cwnd)
		}
	}
}

func TestPlainTCPFillsBuffer(t *testing.T) {
	// Contrast: loss-based TCP pushes the queue to the drop point.
	s, n := starNet(t, 3, fabric.SwitchConfig{BufferBytes: 500_000})
	rec := stats.NewRecorder()
	cfg := DefaultConfig()
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 10_000_000}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(20 * sim.Millisecond)
	if q := n.Switches[0].MaxQueueBytes(0); q < 200_000 {
		t.Fatalf("TCP max queue = %d, expected to approach the drop point", q)
	}
	if n.Switches[0].Ctr.DropDynamic == 0 {
		t.Fatal("TCP should experience loss at the dynamic threshold")
	}
}

func TestTLPConvertsTailLossToProbe(t *testing.T) {
	// Lose the tail of a short flow; with TLP the probe elicits a SACK
	// and recovery happens far sooner than the 4ms RTO.
	run := func(tlp bool) (sim.Time, int) {
		swc := fabric.SwitchConfig{BufferBytes: 120_000} // tight: tail drops
		s, n := starNet(t, 10, swc)
		rec := stats.NewRecorder()
		cfg := DefaultConfig()
		cfg.TLP = tlp
		for i := 0; i < 9; i++ {
			f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 8_000, Start: 0, FG: true}
			StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
		}
		s.Run(sim.Second)
		fcts := rec.Select(true)
		if len(fcts) != 9 {
			t.Fatalf("only %d flows finished", len(fcts))
		}
		worst := stats.Percentile(fcts, 1)
		return sim.Time(worst * 1e9), rec.TimeoutsAll()
	}
	worstBase, toBase := run(false)
	worstTLP, toTLP := run(true)
	if toBase == 0 {
		t.Fatal("scenario did not induce tail loss")
	}
	if worstTLP >= worstBase {
		t.Fatalf("TLP worst FCT %v not better than baseline %v", worstTLP, worstBase)
	}
	if toTLP >= toBase {
		t.Fatalf("TLP timeouts %d not fewer than baseline %d", toTLP, toBase)
	}
}

func TestFixedRTO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO.Fixed = 160 * sim.Microsecond
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(sim.Second)
	if !c.Sender.Done() {
		t.Fatal("flow incomplete")
	}
}

func TestPersistentStreamMultipleWrites(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1}
	fr := rec.NewFlowRecord(f)
	c := NewConn(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), fr, rec)
	var progress []int64
	c.Receiver.OnDeliver = func(total int64) { progress = append(progress, total) }
	c.Sender.Write(10_000)
	s.RunAll()
	first := c.Receiver.Delivered()
	if first != 10_000 {
		t.Fatalf("delivered %d after first write", first)
	}
	c.Sender.Write(5_000)
	s.RunAll()
	if got := c.Receiver.Delivered(); got != 15_000 {
		t.Fatalf("delivered %d after second write", got)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] <= progress[i-1] {
			t.Fatal("delivery progress not monotone")
		}
	}
}

func TestDeliverySamplesCollected(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	rec.DeliverySamples = stats.NewReservoir(1000, 1)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 50_000}
	StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, nil)
	s.RunAll()
	if rec.DeliverySamples.Seen() != 50 {
		t.Fatalf("delivery samples = %d, want 50 segments", rec.DeliverySamples.Seen())
	}
	for _, x := range rec.DeliverySamples.Samples() {
		// One-way latency is at least 2 links of 10us plus serialization.
		if x < 20e-6 || x > 1e-3 {
			t.Fatalf("delivery sample %v out of plausible range", x)
		}
	}
}

func TestRTTSamplersSplitByClass(t *testing.T) {
	s, n := starNet(t, 3, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	rec.RTTSamplesFG = stats.NewReservoir(100, 1)
	rec.RTOSamplesFG = stats.NewReservoir(100, 2)
	rec.RTTSamplesBG = stats.NewReservoir(100, 3)
	rec.RTOSamplesBG = stats.NewReservoir(100, 4)
	StartFlow(s, n.Hosts[0], n.Hosts[2],
		&transport.Flow{ID: 1, Src: 0, Dst: 2, Size: 20_000, FG: true}, DefaultConfig(), rec, nil)
	StartFlow(s, n.Hosts[1], n.Hosts[2],
		&transport.Flow{ID: 2, Src: 1, Dst: 2, Size: 20_000}, DefaultConfig(), rec, nil)
	s.RunAll()
	if rec.RTTSamplesFG.Seen() == 0 || rec.RTTSamplesBG.Seen() == 0 {
		t.Fatal("both classes should have RTT samples")
	}
	for _, x := range rec.RTTSamplesFG.Samples() {
		if x < 40e-6 {
			t.Fatalf("fg RTT %v below propagation floor", x)
		}
	}
}

func TestAdaptiveClockingRetransmitsFullMSS(t *testing.T) {
	// When loss is indicated, the important ACK-clock must carry a full
	// MSS of the lost data (Fig. 3b / Fig. 17), not one byte.
	swc := fabric.SwitchConfig{
		BufferBytes:    150_000,
		ColorThreshold: 40_000,
		ECN:            fabric.ECNStep,
		KEcn:           40_000,
	}
	s, n := starNet(t, 9, swc)
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	cfg.TLT = core.Config{Enabled: true, Clock: core.ClockAdaptive}
	for i := 0; i < 8; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 24_000, FG: true}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(sim.Second)
	var clockBytes, clockSends int64
	for _, fr := range rec.Flows {
		clockBytes += fr.ClockBytes
		clockSends += int64(fr.ClockSends)
	}
	if clockSends == 0 {
		t.Fatal("no clocking triggered in this scenario")
	}
	if clockBytes <= clockSends {
		t.Fatalf("adaptive clocking sent %d bytes over %d sends: loss recovery stuck at 1-byte probes", clockBytes, clockSends)
	}
	if rec.TimeoutsAll() != 0 {
		t.Fatalf("timeouts with TLT: %d", rec.TimeoutsAll())
	}
}

func TestOneByteClockingIsSlower(t *testing.T) {
	run := func(mode core.ClockMode) float64 {
		swc := fabric.SwitchConfig{
			BufferBytes:    150_000,
			ColorThreshold: 40_000,
			ECN:            fabric.ECNStep,
			KEcn:           40_000,
		}
		s, n := starNet(t, 17, swc)
		rec := stats.NewRecorder()
		cfg := DCTCPConfig()
		cfg.TLT = core.Config{Enabled: true, Clock: mode}
		for i := 0; i < 16; i++ {
			f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 16_000, FG: true}
			StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
		}
		s.Run(10 * sim.Second)
		fcts := rec.Select(true)
		if len(fcts) != 16 {
			t.Fatalf("%d flows finished", len(fcts))
		}
		return stats.Percentile(fcts, 1)
	}
	adaptive := run(core.ClockAdaptive)
	oneByte := run(core.ClockOneByte)
	if oneByte < adaptive {
		t.Fatalf("1-byte clocking (%v) should not beat adaptive (%v)", oneByte, adaptive)
	}
}

func TestSenderStateAccessors(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	cfg.TLT = core.Config{Enabled: true}
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 5_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	if c.Sender.cwnd != float64(cfg.InitWindowSegs*cfg.MSS) {
		t.Fatalf("initial cwnd = %v", c.Sender.cwnd)
	}
	s.RunAll()
	if c.Sender.Board.Una != 5_000 {
		t.Fatalf("snd.una = %d", c.Sender.Board.Una)
	}
	if c.Sender.Win.InFlight() {
		t.Fatal("important in flight after completion")
	}
}
