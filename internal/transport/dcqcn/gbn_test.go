package dcqcn

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// TestGBNRewindMarksRoundStart reproduces the paper's Figure 4 scenario:
// the first packet of every retransmission round must travel green, or a
// second loss of the retransmission leaves the sender stalled until RTO.
func TestGBNRewindMarksRoundStart(t *testing.T) {
	// Star with severe color-aware dropping so the initial burst loses
	// its middle and rewind rounds themselves face drops.
	s, n := roceStar(96, fabric.SwitchConfig{
		BufferBytes:    4_500_000,
		ColorThreshold: 200_000,
		ECN:            fabric.ECNRed,
		KMin:           50_000, KMax: 200_000, PMax: 0.2,
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(GBN)
	cfg.TLT = core.Config{Enabled: true, PeriodN: 96}
	id := packet.FlowID(1)
	for h := 1; h < 96; h++ {
		for k := 0; k < 8; k++ {
			f := &transport.Flow{ID: id, Src: packet.NodeID(h), Dst: 0, Size: 8_000, FG: true}
			id++
			StartFlow(s, n.Hosts[h], n.Hosts[0], f, cfg, rec, nil)
		}
	}
	s.Run(5 * sim.Second)
	done, total := rec.CompletedCount(true)
	if done != total {
		t.Fatalf("%d/%d flows completed", done, total)
	}
	if got := rec.TimeoutsAll(); got != 0 {
		t.Fatalf("GBN+TLT incast hit %d timeouts; round-start marking broken", got)
	}
	ctr := n.Counters()
	if ctr.DropRedColor == 0 {
		t.Fatal("scenario should exercise color-aware dropping")
	}
	if ctr.DropGreen != 0 {
		t.Fatalf("%d important packets dropped", ctr.DropGreen)
	}
	fcts := rec.Select(true)
	if worst := stats.Percentile(fcts, 1); worst > 0.02 {
		t.Fatalf("worst FCT %v: recovery is stalling", sim.Time(worst*1e9))
	}
}

// TestGBNWithoutTLTTimesOutUnderSameStress is the control for the above.
func TestGBNWithoutTLTTimesOutUnderSameStress(t *testing.T) {
	s, n := roceStar(96, fabric.SwitchConfig{
		BufferBytes: 500_000, // tighter: baseline has no color threshold
		ECN:         fabric.ECNRed,
		KMin:        50_000, KMax: 200_000, PMax: 0.2,
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(GBN)
	id := packet.FlowID(1)
	for h := 1; h < 96; h++ {
		for k := 0; k < 8; k++ {
			f := &transport.Flow{ID: id, Src: packet.NodeID(h), Dst: 0, Size: 8_000, FG: true}
			id++
			StartFlow(s, n.Hosts[h], n.Hosts[0], f, cfg, rec, nil)
		}
	}
	s.Run(10 * sim.Second)
	if done, total := rec.CompletedCount(true); done != total {
		t.Fatalf("%d/%d flows completed", done, total)
	}
	if rec.TimeoutsAll() == 0 {
		t.Fatal("baseline GBN under overload should hit timeouts")
	}
}

func TestNackImpliesCumulativeAck(t *testing.T) {
	// A NACK for PSN e acknowledges everything below e.
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(GBN), rec, nil)
	// Hold back the ACK path so the cumulative state is still fresh
	// when the synthetic NACK arrives.
	n.Switches[0].Tx(0).Pause()
	s.Run(10 * sim.Microsecond)
	snd.Handle(&packet.Packet{Flow: 1, Type: packet.Nack, Ack: 5})
	if snd.Board.Una != 5 {
		t.Fatalf("una = %d after NACK(5)", snd.Board.Una)
	}
	if snd.Board.Nxt != 5 {
		t.Fatalf("nxt = %d, want rewind to 5", snd.Board.Nxt)
	}
	n.Switches[0].Tx(0).Resume()
	s.Run(5 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete after rewind")
	}
}

func TestIRNRTOLowNotCountedAsTimeout(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(IRN)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 2_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	// Force an RTO_low fire by suppressing delivery: pause the host
	// uplink so the two packets sit in the NIC.
	n.Hosts[0].NICTx().Pause()
	s.Run(cfg.RTOLow + 50*sim.Microsecond)
	if rec.Flows[0].RTOLowFires == 0 {
		t.Fatal("RTO_low should have fired")
	}
	if rec.Flows[0].Timeouts != 0 {
		t.Fatal("RTO_low fires must not count as timeouts")
	}
	n.Hosts[0].NICTx().Resume()
	s.Run(10 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
}

// blackhole retains packets past Handle, so it must copy: the host
// recycles the delivered packet once Handle returns.
type blackhole struct {
	got []packet.Packet
}

func (b *blackhole) Handle(p *packet.Packet) { b.got = append(b.got, *p) }

func (b *blackhole) sentAt(psn int64, nth int) sim.Time {
	seen := 0
	for _, p := range b.got {
		if p.Seq == psn {
			seen++
			if seen == nth {
				return p.SentAt
			}
		}
	}
	return 0
}

func (b *blackhole) count(psn int64) int {
	n := 0
	for _, p := range b.got {
		if p.Seq == psn {
			n++
		}
	}
	return n
}

// TestSackRecoversLostRetransmission drives the sender with crafted ACKs:
// a retransmission that is itself lost must be invalidated by the echoed
// send-time of a later-sent packet (commercial RoCE NACK semantics) and
// retransmitted again, with no 4ms RTO involved.
func TestSackRecoversLostRetransmission(t *testing.T) {
	s, n := roceStar(2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(SACK)
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	// Swallow all data at the receiver host; we play the receiver.
	bh := &blackhole{}
	n.Hosts[1].Register(1, bh)

	s.Run(50 * sim.Microsecond) // initial 10 packets sent
	if len(bh.got) != 10 {
		t.Fatalf("initial sends = %d", len(bh.got))
	}
	// "PSN 9 arrived, 0..8 lost": SACK 9 with its echoed send time.
	snd.Handle(sackAck(packet.SackBlock{Start: 9, End: 10}, bh.sentAt(9, 1)))
	s.Run(s.Now() + 50*sim.Microsecond) // retransmissions of 0..8 go out
	if got := bh.count(0); got != 2 {
		t.Fatalf("PSN0 transmissions = %d, want original + retransmission", got)
	}
	// "The retransmission of 8 arrived but 0..7's retransmissions were
	// lost": the echo of retx-8 proves everything sent before it is gone.
	snd.Handle(sackAck(packet.SackBlock{Start: 8, End: 10}, bh.sentAt(8, 2)))
	s.Run(s.Now() + 50*sim.Microsecond)
	if got := bh.count(0); got != 3 {
		t.Fatalf("PSN0 transmissions = %d, want a second retransmission", got)
	}
	if rec.Flows[0].Timeouts != 0 {
		t.Fatalf("recovery used %d timeouts", rec.Flows[0].Timeouts)
	}
	if s.Now() >= 4*sim.Millisecond {
		t.Fatal("test ran past the static RTO; recovery was not timeout-less")
	}
}

// sackAck is an ACK with cumulative point 0 selectively acknowledging b,
// echoing the send time echo.
func sackAck(b packet.SackBlock, echo sim.Time) *packet.Packet {
	p := &packet.Packet{Flow: 1, Type: packet.Ack, EchoTS: echo}
	p.SetSack(append(p.SackBuf(nil), b))
	return p
}
