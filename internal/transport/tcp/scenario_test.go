package tcp

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/trace"
	"tlt/internal/transport"
)

// scenario builds a two-host network where the sender-side uplink can
// drop packets deterministically.
func scenario(t *testing.T, cfg Config, size int64) (*sim.Sim, *topo.Network, *Sender, *stats.Recorder, *trace.Tracer) {
	t.Helper()
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: 10 * sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 4 << 20, ColorThreshold: 400_000},
	})
	rec := stats.NewRecorder()
	tr := trace.New(0)
	tr.Attach(n.Hosts[0])
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	return s, n, snd, rec, tr
}

// TestFigure3aLossDetection reproduces Figure 3(a): the tail of the
// window is lost, yet the important packet's echo detects the loss within
// one RTT and recovery needs no timeout.
func TestFigure3aLossDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLT = core.Config{Enabled: true}
	s, n, snd, rec, _ := scenario(t, cfg, 8_000)

	// Drop the unimportant packets carrying bytes 4000-6999 once; the
	// important burst-tail (7000-7999) passes.
	dropped := map[int64]bool{}
	n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool {
		if p.Type == packet.Data && p.Seq >= 4000 && p.Seq < 7000 && !dropped[p.Seq] {
			dropped[p.Seq] = true
			return true
		}
		return false
	})
	s.Run(sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
	fr := rec.Flows[0]
	if fr.Timeouts != 0 {
		t.Fatalf("timeouts = %d; TLT echo should have detected the loss", fr.Timeouts)
	}
	if fr.RetxPackets == 0 {
		t.Fatal("no retransmissions despite forced loss")
	}
	// Recovery within a handful of RTTs (base RTT 40us), not an RTO.
	if fct := fr.FCT(); fct > sim.Millisecond {
		t.Fatalf("FCT %v; recovery waited for something", fct)
	}
}

// TestFigure3bLostRetransmission reproduces Figure 3(b): the
// retransmission itself is lost; adaptive important ACK-clocking
// retransmits a full MSS of the lost data and recovery still completes
// without a timeout.
func TestFigure3bLostRetransmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLT = core.Config{Enabled: true}
	s, n, snd, rec, _ := scenario(t, cfg, 8_000)

	// Drop byte-range [1000,3000) data packets twice: the original and
	// the first (fast) retransmission. Clock transmissions are
	// important and pass.
	drops := map[int64]int{}
	n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool {
		if p.Type == packet.Data && p.Seq >= 1000 && p.Seq < 3000 &&
			p.Mark == packet.Unimportant && drops[p.Seq] < 2 {
			drops[p.Seq]++
			return true
		}
		return false
	})
	s.Run(sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
	fr := rec.Flows[0]
	if fr.Timeouts != 0 {
		t.Fatalf("timeouts = %d; lost retransmission should be rescued by clocking", fr.Timeouts)
	}
	if fr.ClockSends == 0 {
		t.Fatal("important ACK-clocking never fired")
	}
	// The clock echo's round trip proves the first retransmissions were
	// lost; the rescue retransmissions (Algorithm 1 lines 18-22) go out
	// marked important: 2 originals + 2 rescues at minimum.
	if fr.RetxPackets < 4 {
		t.Fatalf("retransmissions = %d, want >= 4 (originals re-lost, rescued)", fr.RetxPackets)
	}
	if fct := fr.FCT(); fct > sim.Millisecond {
		t.Fatalf("FCT %v", fct)
	}
}

// TestWholeWindowLossBaselineVsTLT: when the entire initial window is
// lost, baseline TCP has no signal at all and must take an RTO; with TLT
// the (protected) important tail survives by construction — here we force
// even unimportant copies to die, so TLT's fallback also times out. This
// pins the boundary of the guarantee: TLT prevents timeouts only when
// important packets survive.
func TestWholeWindowLossBaselineVsTLT(t *testing.T) {
	for _, tlt := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TLT = core.Config{Enabled: tlt}
		s, n, snd, rec, _ := scenario(t, cfg, 8_000)
		first := true
		n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool {
			// Drop every data packet in the first 100us, important or not
			// (a non-congestion fault TLT does not protect against).
			if p.Type == packet.Data && first && s.Now() < 100*sim.Microsecond {
				return true
			}
			return false
		})
		s.Run(10 * sim.Second)
		if !snd.Done() {
			t.Fatalf("tlt=%v: flow incomplete", tlt)
		}
		if rec.Flows[0].Timeouts == 0 {
			t.Fatalf("tlt=%v: whole-window loss must cost an RTO", tlt)
		}
	}
}

// TestImportantEchoSequence verifies the wire-visible Figure 3(a) pattern:
// important data elicits an ImportantEcho ACK, and there is never more
// than one important (Data or ClockData) packet of the flow in flight.
func TestImportantEchoSequence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLT = core.Config{Enabled: true}
	s, _, snd, _, tr := scenario(t, cfg, 32_000)
	s.Run(sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
	inFlight := 0
	echoes, impData := 0, 0
	for _, e := range tr.Events() {
		switch {
		case e.Dir == "tx" && (e.Pkt.Mark == packet.ImportantData || e.Pkt.Mark == packet.ImportantClockData):
			impData++
			inFlight++
			if inFlight > 1 {
				t.Fatal("two important packets in flight")
			}
		case e.Dir == "rx" && (e.Pkt.Mark == packet.ImportantEcho || e.Pkt.Mark == packet.ImportantClockEcho):
			echoes++
			inFlight--
		}
	}
	if impData == 0 || echoes == 0 {
		t.Fatalf("importants=%d echoes=%d", impData, echoes)
	}
	if impData != echoes {
		t.Fatalf("unbalanced: %d important data vs %d echoes (lossless run)", impData, echoes)
	}
}
