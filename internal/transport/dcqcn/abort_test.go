package dcqcn

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// blackholeQP builds a sender whose every packet vanishes on the wire.
func blackholeQP(t *testing.T, cfg Config, size int64) (*sim.Sim, *Sender, *stats.FlowRecord) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	atx.DropWhen(func(*packet.Packet) bool { return true })
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	rec := stats.NewRecorder()
	fr := rec.NewFlowRecord(flow)
	snd := NewSender(s, src, flow, cfg, fr)
	src.Register(1, snd)
	s.At(0, snd.Start)
	return s, snd, fr
}

// TestQPAbortAfterMaxRetries: retry-count exhaustion against a black
// hole tears the QP down after exactly MaxRetries static timeouts.
func TestQPAbortAfterMaxRetries(t *testing.T) {
	cfg := DefaultConfig(GBN)
	cfg.RTO.Fixed = sim.Millisecond
	cfg.RTO.MaxRetries = 4
	s, snd, fr := blackholeQP(t, cfg, 8_000)
	aborts := 0
	snd.OnAbort = func() { aborts++ }
	s.RunAll()
	if !snd.Aborted() || aborts != 1 {
		t.Fatalf("aborted=%v fires=%d, want abort exactly once", snd.Aborted(), aborts)
	}
	if fr.Timeouts != 4 {
		t.Fatalf("Timeouts = %d, want exactly MaxRetries=4", fr.Timeouts)
	}
	fs := snd.FlowStatus()
	if !fs.Aborted || fs.RTOArmed {
		t.Fatalf("FlowStatus = %+v, want aborted with disarmed RTO", fs)
	}
	// Static timer, no backoff: the 4th timeout lands at 4*Fixed.
	if s.Now() > 5*sim.Millisecond {
		t.Fatalf("abort at %v, want ~4ms (static cadence)", s.Now())
	}
}

// TestQPNoBackoffByDefault: RoCE static timers fire at a fixed cadence
// unless MaxBackoffShift opts into exponential backoff.
func TestQPNoBackoffByDefault(t *testing.T) {
	cfg := DefaultConfig(GBN)
	cfg.RTO.Fixed = sim.Millisecond
	s, _, fr := blackholeQP(t, cfg, 8_000)
	s.Run(10 * sim.Millisecond)
	if fr.Timeouts < 9 {
		t.Fatalf("Timeouts = %d at 10ms, want ~10 (fixed 1ms cadence)", fr.Timeouts)
	}

	cfg.RTO.MaxBackoffShift = 2
	s2, snd2, fr2 := blackholeQP(t, cfg, 8_000)
	// Backed off: 1, 3, 7, 11, 15... → far fewer fires in the window.
	s2.Run(10 * sim.Millisecond)
	if fr2.Timeouts > 4 {
		t.Fatalf("Timeouts = %d at 10ms with shift cap 2, want ≤4", fr2.Timeouts)
	}
	// The shift is capped at 2: after the fire at 7ms the timer waits 4ms.
	if at := snd2.FlowStatus().RTODeadline; at != 11*sim.Millisecond {
		t.Fatalf("next RTO at %v, want 11ms (backoff capped at 2)", at)
	}
}

// TestQPRetriesResetOnProgress (Karn): forward progress during a lossy
// episode resets the give-up counter, so a flow limping through a
// partial outage is not misclassified as black-holed.
func TestQPRetriesResetOnProgress(t *testing.T) {
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	window := true
	atx.DropWhen(func(p *packet.Packet) bool { return window && p.Type == packet.Data })

	cfg := DefaultConfig(GBN)
	cfg.RTO.Fixed = sim.Millisecond
	cfg.RTO.MaxRetries = 5
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100_000}
	rec := stats.NewRecorder()
	c := StartFlow(s, src, dst, flow, cfg, rec, nil)

	// Black-hole for 3 timeouts' worth, then open the path: the retry
	// counter (at 3 of 5) must reset once ACKs flow again.
	s.At(3500*sim.Microsecond, func() { window = false })
	s.Run(30 * sim.Millisecond)
	if c.Sender.Aborted() {
		t.Fatalf("QP aborted despite recovering (timeouts=%d)", rec.Flows[0].Timeouts)
	}
	if !c.Sender.Done() {
		t.Fatal("flow incomplete after the outage lifted")
	}
	if c.Sender.Retries() != 0 {
		t.Fatalf("retries = %d after completion, want reset to 0", c.Sender.Retries())
	}
}
