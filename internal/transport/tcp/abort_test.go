package tcp

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// TestAbortAfterMaxRetries: against a permanent black hole, the sender
// stops after exactly MaxRetries timeouts and surfaces terminal state
// instead of backing off forever.
func TestAbortAfterMaxRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	cfg.RTO.MaxRetries = 4
	aborts := 0
	s, snd, fr := blackholeSender(t, cfg, 8_000, func(*stats.FlowRecord) { aborts++ })
	s.RunAll() // terminates: after the abort no timer re-arms
	if !snd.Aborted() || !snd.Done() {
		t.Fatalf("aborted=%v done=%v, want both after retry exhaustion", snd.Aborted(), snd.Done())
	}
	if aborts != 1 {
		t.Fatalf("onDone fired %d times, want 1", aborts)
	}
	if !fr.Aborted {
		t.Fatal("abort not booked on the recorder")
	}
	if fr.Timeouts != 4 {
		t.Fatalf("Timeouts = %d, want exactly MaxRetries=4", fr.Timeouts)
	}
	fs := snd.FlowStatus()
	if !fs.Aborted || fs.State != "aborted" || fs.RTOArmed {
		t.Fatalf("FlowStatus = %+v, want aborted with disarmed timers", fs)
	}
}

// TestMaxRetriesZeroRetriesForever: the zero value preserves the seed
// behavior — the sender keeps backing off and never aborts.
func TestMaxRetriesZeroRetriesForever(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	s, snd, fr := blackholeSender(t, cfg, 8_000, nil)
	s.Run(200 * sim.Millisecond)
	if snd.Aborted() {
		t.Fatal("sender aborted with MaxRetries=0")
	}
	if fr.Timeouts < 5 {
		t.Fatalf("Timeouts = %d, want continued retrying", fr.Timeouts)
	}
}

// TestBackoffCapBoundary: MaxBackoffShift clamps the exponent exactly at
// the configured shift — the inter-timeout gap stops doubling there.
func TestBackoffCapBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	cfg.RTO.MaxBackoffShift = 3
	s, snd, fr := blackholeSender(t, cfg, 8_000, nil)
	// Timeouts at 1, 3, 7, 15 ms, then every 8 ms: 23, 31, 39.
	s.Run(40 * sim.Millisecond)
	if snd.Backoff() != 3 {
		t.Fatalf("backoff = %d, want capped at 3", snd.Backoff())
	}
	if fr.Timeouts != 7 {
		t.Fatalf("Timeouts at 40ms = %d, want 7 with the capped cadence", fr.Timeouts)
	}
}

// TestKarnNoSampleFromRetransmission: a segment acknowledged only after
// retransmission must contribute no RTT sample (the echoed timestamp is
// suppressed on retransmits), leaving the estimator unseeded.
func TestKarnNoSampleFromRetransmission(t *testing.T) {
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	drops := 0
	atx.DropWhen(func(p *packet.Packet) bool {
		if p.Type == packet.Data && drops == 0 {
			drops++
			return true
		}
		return false
	})
	cfg := DefaultConfig()
	cfg.RTO.Min = sim.Millisecond
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	rec := stats.NewRecorder()
	snd, _ := StartFlow(s, src, dst, flow, cfg, rec, nil)
	s.RunAll()
	if !snd.Done() || snd.Aborted() {
		t.Fatalf("one-segment flow did not complete cleanly (done=%v aborted=%v)",
			snd.Done(), snd.Aborted())
	}
	if drops != 1 {
		t.Fatalf("dropped %d packets, want 1 (the original transmission)", drops)
	}
	if got := snd.rtoEst.SRTT(); got != 0 {
		t.Fatalf("SRTT = %v after an ACK for a retransmitted segment; Karn forbids the sample", got)
	}
}
