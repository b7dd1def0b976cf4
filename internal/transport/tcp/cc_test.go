package tcp

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// blackholeSender builds a sender whose packets all vanish, to observe
// timer behaviour in isolation.
// newSender and newReceiver return endpoints Reset for flow on host.
func newSender(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) *Sender {
	snd := new(Sender)
	snd.Reset(host, flow, cfg, rec, recorder, onDone)
	return snd
}

func newReceiver(host *fabric.Host, flow *transport.Flow, cfg Config) *Receiver {
	r := new(Receiver)
	r.Reset(host, flow, cfg)
	return r
}

func blackholeSender(t *testing.T, cfg Config, size int64, onDone func(*stats.FlowRecord)) (*sim.Sim, *Sender, *stats.FlowRecord) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	atx.DropWhen(func(*packet.Packet) bool { return true })
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	rec := stats.NewRecorder()
	fr := rec.NewFlowRecord(flow)
	snd := newSender(src, flow, cfg, fr, rec, onDone)
	src.Register(1, snd)
	snd.Write(size)
	snd.Close()
	return s, snd, fr
}

func TestRTOExponentialBackoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	s, _, fr := blackholeSender(t, cfg, 8_000, nil)
	// With RTOmin=1ms and doubling: fires at ~1, 3, 7, 15, 31 ms...
	s.Run(2 * sim.Millisecond)
	if fr.Timeouts != 1 {
		t.Fatalf("timeouts at 2ms = %d, want 1", fr.Timeouts)
	}
	s.Run(4 * sim.Millisecond)
	if fr.Timeouts != 2 {
		t.Fatalf("timeouts at 4ms = %d, want 2 (backoff doubled)", fr.Timeouts)
	}
	s.Run(10 * sim.Millisecond)
	if fr.Timeouts != 3 {
		t.Fatalf("timeouts at 10ms = %d, want 3", fr.Timeouts)
	}
	// Without backoff there would be ~10 by now.
	s.Run(40 * sim.Millisecond)
	if fr.Timeouts > 6 {
		t.Fatalf("timeouts at 40ms = %d; backoff not exponential", fr.Timeouts)
	}
}

func TestBackoffResetsOnProgress(t *testing.T) {
	// After several RTOs, one delivered ACK must reset the backoff.
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	blackhole := true
	atx.DropWhen(func(*packet.Packet) bool { return blackhole })
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 8_000}
	rec := stats.NewRecorder()
	fr := rec.NewFlowRecord(flow)
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	snd := newSender(src, flow, cfg, fr, rec, nil)
	rcv := newReceiver(dst, flow, cfg)
	src.Register(1, snd)
	dst.Register(1, rcv)
	snd.Write(8_000)
	snd.Close()
	s.Run(8 * sim.Millisecond) // two RTOs, backoff at 4x
	if fr.Timeouts < 2 {
		t.Fatalf("setup failed: %d timeouts", fr.Timeouts)
	}
	blackhole = false // heal the path
	s.Run(sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete after heal")
	}
	if snd.Backoff() != 0 {
		t.Fatalf("backoff = %d after progress", snd.Backoff())
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	// Base RTT ~44us. After ~5 RTTs of slow start from 10kB the window
	// should have grown manyfold (no loss, no ECN on this switch).
	s.Run(250 * sim.Microsecond)
	if c.Sender.cwnd < 100_000 {
		t.Fatalf("cwnd = %.0f after 5 RTTs, slow start too slow", c.Sender.cwnd)
	}
	if c.Sender.cwnd > cfg.MaxCwndBytes {
		t.Fatal("cwnd above cap")
	}
}

func TestCwndCapped(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig()
	cfg.MaxCwndBytes = 50_000
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 5_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(sim.Second)
	if !c.Sender.Done() {
		t.Fatal("flow incomplete")
	}
	if c.Sender.cwnd > 50_000 {
		t.Fatalf("cwnd %v exceeded cap", c.Sender.cwnd)
	}
}

func TestRecoveryHalvesWindow(t *testing.T) {
	// Force one clean loss mid-flow and observe the multiplicative
	// decrease plus recovery exit.
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 2_000_000}
	c := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	dropped := false
	n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool {
		if !dropped && p.Type == packet.Data && p.Seq == 200_000 {
			dropped = true
			return true
		}
		return false
	})
	var before float64
	s.After(0, func() {
		var poll func()
		poll = func() {
			if !dropped {
				before = c.Sender.cwnd
				s.After(5*sim.Microsecond, poll)
			}
		}
		poll()
	})
	s.Run(sim.Second)
	if !c.Sender.Done() {
		t.Fatal("flow incomplete")
	}
	if !dropped {
		t.Fatal("loss never triggered")
	}
	if rec.Flows[0].FastRecov != 1 {
		t.Fatalf("fast recovery episodes = %d, want 1", rec.Flows[0].FastRecov)
	}
	if rec.Flows[0].Timeouts != 0 {
		t.Fatal("single loss must not cost an RTO")
	}
	_ = before
}
