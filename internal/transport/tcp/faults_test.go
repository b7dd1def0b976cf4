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

// TestNonCongestionLossFallback injects random link loss (which color
// protection cannot prevent — important packets die too) and verifies
// that TLT degrades gracefully to the underlying transport: every flow
// still completes, via RTO when the important packet itself is lost (§5).
func TestNonCongestionLossFallback(t *testing.T) {
	for _, useTLT := range []bool{false, true} {
		s := sim.New()
		n := topo.Star(s, topo.StarConfig{
			Hosts: 3, LinkRateBps: 40e9, LinkDelay: 10 * sim.Microsecond,
			Switch: fabric.SwitchConfig{BufferBytes: 4 << 20, ColorThreshold: 400_000},
		})
		// 2% random loss on both sender uplinks (data path) — harsh.
		rng := sim.NewRNG(11)
		n.Hosts[1].NICTx().InjectLoss(0.02, rng)
		n.Hosts[2].NICTx().InjectLoss(0.02, rng)

		rec := stats.NewRecorder()
		cfg := DCTCPConfig()
		cfg.TLT = core.Config{Enabled: useTLT}
		for i := 0; i < 2; i++ {
			f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 500_000}
			StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
		}
		s.Run(60 * sim.Second)
		for i, fr := range rec.Flows {
			if !fr.Done {
				t.Fatalf("tlt=%v: flow %d incomplete under random loss", useTLT, i)
			}
		}
		if drops := n.Hosts[1].NICTx().InjectedDrops() + n.Hosts[2].NICTx().InjectedDrops(); drops == 0 {
			t.Fatal("no losses injected; test is vacuous")
		}
	}
}

// TestAckPathLoss drops ACKs randomly: cumulative acking must absorb the
// losses without stalling.
func TestAckPathLoss(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: 10 * sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 4 << 20},
	})
	// Loss on the receiver's NIC (the ACK path).
	n.Hosts[1].NICTx().InjectLoss(0.05, sim.NewRNG(3))
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 300_000}
	snd, rcv := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, nil)
	s.Run(60 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete under ACK loss")
	}
	if got := rcv.Delivered(); got != f.Size {
		t.Fatalf("delivered %d", got)
	}
}
