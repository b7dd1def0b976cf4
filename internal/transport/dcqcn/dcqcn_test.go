package dcqcn

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

func roceStar(hosts int, swc fabric.SwitchConfig) (*sim.Sim, *topo.Network) {
	s := sim.New()
	if swc.BufferBytes == 0 {
		swc.BufferBytes = 4_500_000
	}
	if swc.ECN == fabric.ECNOff {
		swc.ECN = fabric.ECNRed
		swc.KMin = 50_000
		swc.KMax = 200_000
		swc.PMax = 0.01
	}
	n := topo.Star(s, topo.StarConfig{
		Hosts:       hosts,
		LinkRateBps: 40e9,
		LinkDelay:   sim.Microsecond,
		Switch:      swc,
	})
	return s, n
}

func TestGBNSingleFlow(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(GBN), rec, nil)
	s.Run(sim.Second)
	if got := c.Receiver.Delivered(); got != 1000 {
		t.Fatalf("delivered %d packets, want 1000", got)
	}
	if !rec.Flows[0].Done {
		t.Fatal("flow not done")
	}
	if rec.Flows[0].Timeouts != 0 {
		t.Fatalf("timeouts: %d", rec.Flows[0].Timeouts)
	}
}

func TestModesRecoverFromCongestionLoss(t *testing.T) {
	for _, mode := range []Mode{GBN, SACK, IRN} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			swc := fabric.SwitchConfig{BufferBytes: 400_000, ECN: fabric.ECNRed, KMin: 50_000, KMax: 200_000, PMax: 0.01}
			s, n := roceStar(17, swc)
			rec := stats.NewRecorder()
			for i := 0; i < 16; i++ {
				f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 64_000, FG: true}
				StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, DefaultConfig(mode), rec, nil)
			}
			s.Run(2 * sim.Second)
			if d, tot := rec.CompletedCount(true); d != tot {
				t.Fatalf("%d/%d flows completed", d, tot)
			}
			ctr := n.Counters()
			if ctr.TotalDrops() == 0 {
				t.Fatal("expected congestion drops in this scenario")
			}
		})
	}
}

func TestCNPThrottlesRate(t *testing.T) {
	// Two senders into one port with RED marking: rates must fall below
	// line rate after CNPs arrive.
	s, n := roceStar(3, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	var snds []*Sender
	for i := 0; i < 2; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 10_000_000}
		c := StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, DefaultConfig(GBN), rec, nil)
		snds = append(snds, c.Sender)
	}
	s.Run(500 * sim.Microsecond)
	slowed := false
	for _, snd := range snds {
		if snd.rate < 40e9*0.95 {
			slowed = true
		}
	}
	if !slowed {
		t.Fatal("no sender throttled despite shared bottleneck with ECN")
	}
	s.Run(2 * sim.Second)
	if d, tot := rec.CompletedCount(false); d != tot {
		t.Fatalf("%d/%d flows completed", d, tot)
	}
}

func TestTLTRateMarkingLastAndRetx(t *testing.T) {
	// With TLT, the last packet of the message must be green so the
	// receiver can always detect preceding losses.
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(SACK)
	cfg.TLT = core.Config{Enabled: true, PeriodN: 96}
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 500_000}
	StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(sim.Second)
	fr := rec.Flows[0]
	if !fr.Done {
		t.Fatal("flow not done")
	}
	if fr.ImpPackets == 0 {
		t.Fatal("no important packets marked")
	}
	// 500 packets with N=96 periodic marking plus the last packet plus
	// per-packet important ACKs: data importants should be ~6.
	if fr.ImpPackets > int(fr.SentPackets)/2+600 {
		t.Fatalf("too many important packets: %d of %d", fr.ImpPackets, fr.SentPackets)
	}
}

func TestIRNWindowLimitsInflight(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(IRN)
	cfg.BDPPkts = 10
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	// Sample inflight during the run.
	maxIn := int64(0)
	var poll func()
	poll = func() {
		if in := c.Sender.Board.InFlight(); in > maxIn {
			maxIn = in
		}
		if !c.Sender.Done() {
			s.After(10*sim.Microsecond, poll)
		}
	}
	s.After(0, poll)
	s.Run(sim.Second)
	if !rec.Flows[0].Done {
		t.Fatal("flow not done")
	}
	if maxIn > 10 {
		t.Fatalf("IRN inflight %d exceeded BDP window 10", maxIn)
	}
}
