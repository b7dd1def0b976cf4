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

// TestIncrementalDeployment models §5.3: TLT-enabled machines use a
// dedicated switch queue (class 0) with color-aware dropping; legacy
// machines share the port on a separate queue (class 1) that never sees
// color drops. TLT flows stay timeout-free while legacy traffic is
// unaffected by the color threshold.
func TestIncrementalDeployment(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts:       65,
		LinkRateBps: 40e9,
		LinkDelay:   10 * sim.Microsecond,
		Switch: fabric.SwitchConfig{
			BufferBytes:    2_000_000,
			TrafficClasses: 2,
			ColorThreshold: 100_000, // applies to class 0 only
			ECN:            fabric.ECNStep,
			KEcn:           200_000,
		},
	})
	rec := stats.NewRecorder()

	tltCfg := DCTCPConfig()
	tltCfg.TLT = core.Config{Enabled: true}
	tltCfg.TrafficClass = 0

	legacyCfg := DCTCPConfig()
	legacyCfg.TrafficClass = 1

	// 32 TLT incast flows and 32 legacy incast flows share the receiver
	// port.
	for i := 0; i < 64; i++ {
		src := n.Hosts[i+1]
		f := &transport.Flow{
			ID:  packet.FlowID(i + 1),
			Src: src.ID(), Dst: 0,
			Size: 8_000, FG: i < 32,
		}
		cfg := legacyCfg
		if i < 32 {
			cfg = tltCfg
		}
		StartFlow(s, src, n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(5 * sim.Second)

	var tltTimeouts, legacyTimeouts int
	for _, fr := range rec.Flows {
		if !fr.Done {
			t.Fatalf("flow %d incomplete", fr.Flow.ID)
		}
		if fr.Flow.FG {
			tltTimeouts += fr.Timeouts
		} else {
			legacyTimeouts += fr.Timeouts
		}
	}
	if tltTimeouts != 0 {
		t.Fatalf("TLT-class flows hit %d timeouts", tltTimeouts)
	}
	ctr := n.Counters()
	// The color threshold only ever dropped class-0 (red) packets; the
	// legacy class is unaffected by TLT's presence. Legacy drops, if
	// any, come from the shared dynamic threshold like before.
	if ctr.DropRedColor == 0 {
		t.Fatal("scenario did not exercise color dropping")
	}
	if ctr.DropGreen != 0 {
		t.Fatalf("important packets dropped: %d", ctr.DropGreen)
	}
}

// TestTrafficClassIsolation verifies round-robin scheduling between the
// class queues: a backlogged legacy class cannot starve the TLT class.
func TestTrafficClassIsolation(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts:       3,
		LinkRateBps: 40e9,
		LinkDelay:   10 * sim.Microsecond,
		Switch: fabric.SwitchConfig{
			BufferBytes:    8_000_000,
			TrafficClasses: 2,
		},
	})
	rec := stats.NewRecorder()

	legacy := DefaultConfig()
	legacy.TrafficClass = 1
	bg := &transport.Flow{ID: 1, Src: 1, Dst: 0, Size: 20_000_000}
	StartFlow(s, n.Hosts[1], n.Hosts[0], bg, legacy, rec, nil)

	// Let the legacy flow build a standing queue, then run a short
	// class-0 flow through the same port.
	s.Run(2 * sim.Millisecond)
	cls0 := DefaultConfig()
	fg := &transport.Flow{ID: 2, Src: 2, Dst: 0, Size: 32_000, Start: s.Now(), FG: true}
	StartFlow(s, n.Hosts[2], n.Hosts[0], fg, cls0, rec, nil)
	s.Run(sim.Second)

	var fgRec *stats.FlowRecord
	for _, fr := range rec.Flows {
		if fr.Flow.FG {
			fgRec = fr
		}
	}
	if fgRec == nil || !fgRec.Done {
		t.Fatal("foreground flow incomplete")
	}
	// With round-robin it gets ~half the link; without isolation it
	// would sit behind the full legacy backlog.
	if fct := fgRec.FCT(); fct > 2*sim.Millisecond {
		t.Fatalf("class-0 flow FCT %v: starved behind legacy backlog", fct)
	}
}
