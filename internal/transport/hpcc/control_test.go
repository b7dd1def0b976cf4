package hpcc

import (
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

func isolated(t *testing.T) (*sim.Sim, *Sender) {
	t.Helper()
	s, n := hpccStar(2, 4_500_000)
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(10*sim.Microsecond), rec, nil)
	s.Run(5 * sim.Microsecond) // let the first window go out
	return s, snd
}

func intAck(cum int64, q int64, txBytes int64, at sim.Time) *packet.Packet {
	pkt := &packet.Packet{Flow: 1, Type: packet.Ack, Ack: cum}
	pkt.AppendINT(nil, packet.INTHop{
		QueueBytes: q, TxBytes: txBytes, Timestamp: at, RateBps: 40e9,
	})
	return pkt
}

func TestHPCCWindowShrinksOnHighUtilization(t *testing.T) {
	_, snd := isolated(t)
	w0 := snd.Window()
	// Two ACKs with a large standing queue and near-line tx rate: the
	// measured utilization exceeds eta and the window must multiply down.
	snd.Handle(intAck(1, 200_000, 1_000_000, 10*sim.Microsecond))
	snd.Handle(intAck(2, 200_000, 1_050_000, 20*sim.Microsecond))
	if snd.Window() >= w0 {
		t.Fatalf("window %v did not shrink from %v under congestion", snd.Window(), w0)
	}
}

func TestHPCCWindowRecoversWhenIdle(t *testing.T) {
	_, snd := isolated(t)
	// Congest first.
	snd.Handle(intAck(1, 300_000, 1_000_000, 10*sim.Microsecond))
	snd.Handle(intAck(2, 300_000, 1_050_000, 20*sim.Microsecond))
	low := snd.Window()
	// Now empty queue, low tx rate: utilization far below eta;
	// additive increase (and MIMD toward wc) must grow the window.
	ts := 30 * sim.Microsecond
	tx := int64(1_100_000)
	for i := int64(3); i < 40; i++ {
		snd.Handle(intAck(i, 0, tx, ts))
		ts += 10 * sim.Microsecond
		tx += 1000 // trickle: ~0.8% utilization
	}
	if snd.Window() <= low {
		t.Fatalf("window %v did not recover from %v", snd.Window(), low)
	}
}

func TestHPCCWindowClamps(t *testing.T) {
	_, snd := isolated(t)
	// Absurd congestion cannot push the window below one MSS.
	for i := int64(1); i < 50; i++ {
		snd.Handle(intAck(i, 10_000_000, 1_000_000+i*1000, sim.Time(i*10)*sim.Microsecond))
	}
	if snd.Window() < float64(snd.cfg.MSS) {
		t.Fatalf("window %v below 1 MSS", snd.Window())
	}
	// And never above the initial (line-rate) window.
	if snd.Window() > snd.winit {
		t.Fatalf("window %v above winit %v", snd.Window(), snd.winit)
	}
}

func TestHPCCFirstRTTBurstLoss(t *testing.T) {
	// The paper's observation: HPCC cannot protect the first-RTT burst.
	// A 32-to-1 incast with a small buffer must drop packets even
	// though HPCC converges to near-zero queues afterwards.
	s, n := hpccStar(33, 400_000)
	rec := stats.NewRecorder()
	cfg := DefaultConfig(n.BaseRTT + 10*sim.Microsecond)
	for i := 0; i < 32; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0, Size: 64_000, FG: true}
		StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, cfg, rec, nil)
	}
	s.Run(10 * sim.Second)
	if d, tot := rec.CompletedCount(true); d != tot {
		t.Fatalf("%d/%d complete", d, tot)
	}
	if n.Switches[0].Ctr.TotalDrops() == 0 {
		t.Fatal("expected first-RTT burst drops")
	}
}
