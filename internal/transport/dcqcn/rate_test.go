package dcqcn

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

func TestCnpCutsRateAndRaisesAlpha(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(GBN)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(10 * sim.Microsecond)
	snd := c.Sender

	before := snd.rate
	snd.onCnp()
	after1 := snd.rate
	if after1 >= before {
		t.Fatalf("rate did not drop: %v -> %v", before, after1)
	}
	// alpha after first CNP is g; cut factor is (1 - g/2).
	wantCut := before * (1 - cfg.G/2)
	if diff := after1 - wantCut; diff > 1 || diff < -1 {
		t.Fatalf("first cut = %v, want %v", after1, wantCut)
	}
	// Repeated CNPs drive alpha up and the rate down multiplicatively,
	// clamped at the minimum.
	for i := 0; i < 500; i++ {
		snd.onCnp()
	}
	if snd.rate < float64(cfg.MinRateBps) {
		t.Fatalf("rate %v below floor", snd.rate)
	}
	if snd.alpha <= cfg.G || snd.alpha > 1 {
		t.Fatalf("alpha = %v after many CNPs", snd.alpha)
	}
}

func TestRateIncreaseStages(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(GBN)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(10 * sim.Microsecond)
	snd := c.Sender

	snd.onCnp()
	cutRate := snd.rate
	target := snd.target

	// Fast recovery: each event halves the gap to the target without
	// raising the target.
	for i := 0; i < cfg.FastRecoverySteps; i++ {
		snd.increase()
	}
	if snd.target != target {
		t.Fatalf("fast recovery moved the target: %v -> %v", target, snd.target)
	}
	if snd.rate <= cutRate || snd.rate > target {
		t.Fatalf("fast recovery rate = %v, want in (%v, %v]", snd.rate, cutRate, target)
	}
	// Additive stage raises the target by AI per event.
	snd.increase()
	if want := target + cfg.AIBps; snd.target != want && snd.target != float64(cfg.LineRateBps) {
		t.Fatalf("additive target = %v, want %v", snd.target, want)
	}
	// Hyper stage accelerates.
	for i := 0; i < cfg.HyperAfterSteps; i++ {
		snd.increase()
	}
	tBefore := snd.target
	snd.increase()
	if snd.target != tBefore+cfg.HAIBps && snd.target != float64(cfg.LineRateBps) {
		t.Fatalf("hyper increase did not apply: %v -> %v", tBefore, snd.target)
	}
	// Rate never exceeds line rate.
	for i := 0; i < 1000; i++ {
		snd.increase()
	}
	if snd.rate > float64(cfg.LineRateBps) {
		t.Fatalf("rate %v above line rate", snd.rate)
	}
}

func TestPacingRespectsRate(t *testing.T) {
	// At a throttled rate the flow takes proportionally longer.
	run := func(cut bool) sim.Time {
		s, n := roceStar(2, fabric.SwitchConfig{})
		rec := stats.NewRecorder()
		cfg := DefaultConfig(GBN)
		// Disable increase timers so the throttled rate stays put.
		cfg.RPTimer = sim.Second
		cfg.AlphaTimer = sim.Second
		cfg.ByteCounter = 1 << 40
		f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}
		c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
		if cut {
			s.At(0, func() {
				// alpha grows by g per CNP, so a sustained CNP storm is
				// needed to collapse the rate to the floor.
				for i := 0; i < 200; i++ {
					c.Sender.onCnp()
				}
			})
		}
		s.Run(20 * sim.Second)
		if !rec.Flows[0].Done {
			t.Fatal("flow incomplete")
		}
		return rec.Flows[0].FCT()
	}
	full := run(false)
	throttled := run(true)
	if throttled < 4*full {
		t.Fatalf("throttled FCT %v vs line-rate %v: pacing ineffective", throttled, full)
	}
}

func TestCnpGenerationInterval(t *testing.T) {
	// The receiver must emit at most one CNP per CnpInterval per flow.
	s, n := roceStar(3, fabric.SwitchConfig{
		BufferBytes: 4_500_000,
		ECN:         fabric.ECNRed,
		KMin:        10_000, KMax: 50_000, PMax: 1.0,
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(GBN)
	var cnps int
	// Count CNPs arriving at host 0's sender.
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 4_000_000}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	_ = cnps
	s.Run(2 * sim.Second)
	// Both flows complete despite heavy marking.
	if d, tot := rec.CompletedCount(false); d != tot {
		t.Fatalf("%d/%d complete", d, tot)
	}
}
