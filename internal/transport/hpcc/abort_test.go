package hpcc

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// blackholeFlow starts an HPCC flow whose every packet vanishes on the
// wire, returning the sender and its record.
func blackholeFlow(t *testing.T, cfg Config, size int64) (*sim.Sim, *Sender, *stats.Recorder) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	atx.DropWhen(func(*packet.Packet) bool { return true })
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	rec := stats.NewRecorder()
	snd, _ := StartFlow(s, src, dst, flow, cfg, rec, nil)
	return s, snd, rec
}

// TestHPCCAbortAfterMaxRetries: retry exhaustion against a black hole
// aborts the flow, stamps the record, and disarms the lazy RTO.
func TestHPCCAbortAfterMaxRetries(t *testing.T) {
	cfg := DefaultConfig(8 * sim.Microsecond)
	cfg.RTO.Fixed = sim.Millisecond
	cfg.RTO.MaxRetries = 3
	s, snd, rec := blackholeFlow(t, cfg, 8_000)
	s.RunAll()
	if !snd.Aborted() {
		t.Fatal("sender not aborted after retry exhaustion")
	}
	fr := rec.Flows[0]
	if !fr.Aborted || fr.Done {
		t.Fatalf("record Aborted=%v Done=%v, want aborted and not done", fr.Aborted, fr.Done)
	}
	if fr.Timeouts != 3 {
		t.Fatalf("Timeouts = %d, want exactly MaxRetries=3", fr.Timeouts)
	}
	fs := snd.FlowStatus()
	if !fs.Aborted || fs.RTOArmed {
		t.Fatalf("FlowStatus = %+v, want aborted with disarmed RTO", fs)
	}
}

// TestHPCCBackoffShiftsFixedRTO: MaxBackoffShift stretches the static
// timer cadence — 1, 3, 7ms against the unshifted 1, 2, 3ms.
func TestHPCCBackoffShiftsFixedRTO(t *testing.T) {
	cfg := DefaultConfig(8 * sim.Microsecond)
	cfg.RTO.Fixed = sim.Millisecond
	s, _, rec := blackholeFlow(t, cfg, 8_000)
	s.Run(6 * sim.Millisecond)
	if got := rec.Flows[0].Timeouts; got < 5 {
		t.Fatalf("Timeouts = %d at 6ms without backoff, want ≥5", got)
	}

	cfg.RTO.MaxBackoffShift = 4
	s2, snd2, rec2 := blackholeFlow(t, cfg, 8_000)
	s2.Run(6 * sim.Millisecond)
	// Backed off: fires at 1, 3ms; the 7ms fire is past the window.
	if got := rec2.Flows[0].Timeouts; got != 2 {
		t.Fatalf("Timeouts = %d at 6ms with backoff, want 2 (cadence 1,3,7ms)", got)
	}
	if at := snd2.FlowStatus().RTODeadline; at != 7*sim.Millisecond {
		t.Fatalf("next RTO at %v after 2 timeouts, want 7ms (backoff 2)", at)
	}
}
