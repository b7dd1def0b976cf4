package dcqcn

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// blackholeQP starts a queue pair whose every packet vanishes on the wire.
func blackholeQP(t *testing.T, cfg Config, size int64) (*sim.Sim, *Sender, *stats.FlowRecord) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	atx, _ := fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	atx.DropWhen(func(*packet.Packet) bool { return true })
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	rec := stats.NewRecorder()
	snd, _ := StartFlow(s, src, dst, flow, cfg, rec, nil)
	return s, snd, rec.Flows[0]
}

// TestQPAbortAfterMaxRetries: retry-count exhaustion against a black
// hole tears the QP down after exactly MaxRetries static timeouts.
func TestQPAbortAfterMaxRetries(t *testing.T) {
	cfg := DefaultConfig(GBN)
	cfg.RTO.Fixed = sim.Millisecond
	cfg.RTO.MaxRetries = 4
	s, snd, fr := blackholeQP(t, cfg, 8_000)
	s.RunAll()
	if !snd.Aborted() || !fr.Aborted {
		t.Fatalf("aborted=%v booked=%v, want it booked", snd.Aborted(), fr.Aborted)
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
	snd, _ := StartFlow(s, src, dst, flow, cfg, rec, nil)

	// Black-hole for 3 timeouts' worth, then open the path: the retry
	// counter (at 3 of 5) must reset once ACKs flow again.
	s.At(3500*sim.Microsecond, func() { window = false })
	s.Run(30 * sim.Millisecond)
	if snd.Aborted() {
		t.Fatalf("QP aborted despite recovering (timeouts=%d)", rec.Flows[0].Timeouts)
	}
	if !snd.Done() {
		t.Fatal("flow incomplete after the outage lifted")
	}
	if snd.Retries() != 0 {
		t.Fatalf("retries = %d after completion, want reset to 0", snd.Retries())
	}
}

// TestLateEchoScansFromTheLaterImportantPacket pins what an important
// echo marks lost when it is not the echo of the important packet the
// marking machine has in flight. An RTO presumes that packet lost and
// marks a retransmission important in its place; if the first one's echo
// then turns up after all, it frees the machine to mark a third packet,
// and from there on every echo arrives one important packet behind: the
// machine answers it with a send time later than the one the echo
// carries, and the retransmissions sent in between are invalidated. The
// incast flows of a leaf-spine dcqcn-irn+tlt cell do this thousands of
// times (RTO_low fires while echoes queue), so every digest of such a
// cell rests on QPSender.OnAck scanning from the later of the two times,
// not from the echoed one alone.
func TestLateEchoScansFromTheLaterImportantPacket(t *testing.T) {
	cfg := DefaultConfig(IRN)
	cfg.TLT.Enabled = true
	cfg.RTO.Fixed, cfg.RTOLow = 50*sim.Microsecond, 0
	s, snd, _ := blackholeQP(t, cfg, 12_000)
	echo := func(cum int64, echoTS sim.Time) {
		snd.Handle(&packet.Packet{Flow: 1, Type: packet.Ack, Ack: cum, Mark: packet.ImportantEcho, EchoTS: echoTS})
	}
	s.Run(50*sim.Microsecond + 500) // the RTO has fired and PSNs 0 to 2 have left again
	b := &snd.Board
	// The important packets so far: the message's tail, then PSN 0 again.
	first, second := b.State(b.Nxt-1).LastSent, b.State(0).LastSent
	if second != 50*sim.Microsecond || !b.State(2).Retx() || b.State(3).Retx() || b.Nxt != 12 {
		t.Fatalf("500 ns after the RTO: psn 0 last sent at %v, board %+v; want three retransmissions out", second, b)
	}

	// The presumed-lost packet's echo: nothing was sent before it, but the
	// machine is free again and marks PSN 3, which leaves at once.
	echo(0, first)
	if !b.State(3).Retx() || b.State(3).LastSent != s.Now() || !snd.Win.InFlight() || b.PendingRetx() != 8 {
		t.Fatalf("after the late echo: psn 3 %+v, important in flight %v, %d await retransmission; want a third important packet out",
			b.State(3), snd.Win.InFlight(), b.PendingRetx())
	}

	// The echo of PSN 0's retransmission is answered with PSN 3's send
	// time: PSNs 1 and 2, sent in between, are invalidated — 1 leaves
	// again at once, 2 waits its turn — and PSN 3 keeps its own.
	echo(1, second)
	if p1, p2, p3 := b.State(1), b.State(2), b.State(3); p1.LastSent != s.Now() || p2.Retx() || !p2.Lost() || !p3.Retx() {
		t.Fatalf("after the second echo: psn 1 %+v, psn 2 %+v, psn 3 %+v; want the retransmissions sent before psn 3's invalidated",
			p1, p2, p3)
	}
}
