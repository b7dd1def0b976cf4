package tcp

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/transport"
)

// ackCatcher records the ACKs a receiver emits by replacing the sender's
// handler on the source host.
type ackCatcher struct {
	acks []*packet.Packet
}

func (a *ackCatcher) Handle(p *packet.Packet) {
	if p.Type == packet.Ack {
		a.acks = append(a.acks, p)
	}
}

func recvHarness(t *testing.T, cfg Config) (*sim.Sim, *Receiver, *ackCatcher) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100_000}
	r := new(Receiver)
	r.Reset(dst, flow, cfg, nil)
	dst.Register(1, r)
	cat := &ackCatcher{}
	src.Register(1, cat)
	return s, r, cat
}

func seg(seq int64, n int, mark packet.Mark, ce bool) *packet.Packet {
	return &packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Seq: seq, Len: n, Mark: mark, CE: ce, SentAt: 1}
}

func TestReceiverCumulativeAndSack(t *testing.T) {
	s, r, cat := recvHarness(t, DefaultConfig())
	r.Handle(seg(0, 1000, packet.Unimportant, false))
	r.Handle(seg(2000, 1000, packet.Unimportant, false)) // hole at 1000
	r.Handle(seg(4000, 1000, packet.Unimportant, false)) // hole at 3000
	s.RunAll()
	if len(cat.acks) != 3 {
		t.Fatalf("acks = %d", len(cat.acks))
	}
	last := cat.acks[2]
	if last.Ack != 1000 {
		t.Fatalf("cum ack = %d", last.Ack)
	}
	if len(last.Sack()) != 2 {
		t.Fatalf("sack blocks = %v", last.Sack())
	}
	// Highest block first.
	if last.Sack()[0].Start != 4000 || last.Sack()[1].Start != 2000 {
		t.Fatalf("sack order = %v", last.Sack())
	}
	// Fill the first hole: cum jumps over the contiguous range.
	r.Handle(seg(1000, 1000, packet.Unimportant, false))
	s.RunAll()
	if got := cat.acks[3].Ack; got != 3000 {
		t.Fatalf("cum after fill = %d", got)
	}
	if r.Delivered() != 3000 {
		t.Fatalf("delivered = %d", r.Delivered())
	}
}

func TestReceiverECNEchoPerPacket(t *testing.T) {
	s, r, cat := recvHarness(t, DCTCPConfig())
	r.Handle(seg(0, 1000, packet.Unimportant, true))
	r.Handle(seg(1000, 1000, packet.Unimportant, false))
	r.Handle(seg(2000, 1000, packet.Unimportant, true))
	s.RunAll()
	want := []bool{true, false, true}
	for i, ack := range cat.acks {
		if ack.ECE != want[i] {
			t.Fatalf("ack %d ECE = %v, want %v (DCTCP needs per-packet accuracy)", i, ack.ECE, want[i])
		}
	}
}

func TestReceiverTLTEchoMarks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLT = core.Config{Enabled: true}
	s, r, cat := recvHarness(t, cfg)
	r.Handle(seg(0, 1000, packet.Unimportant, false))
	r.Handle(seg(1000, 1000, packet.ImportantData, false))
	r.Handle(seg(2000, 1000, packet.ImportantClockData, false))
	s.RunAll()
	wantMarks := []packet.Mark{packet.ControlImportant, packet.ImportantEcho, packet.ImportantClockEcho}
	for i, ack := range cat.acks {
		if ack.Mark != wantMarks[i] {
			t.Fatalf("ack %d mark = %v, want %v", i, ack.Mark, wantMarks[i])
		}
	}
}

func TestReceiverKarnTimestampEcho(t *testing.T) {
	s, r, cat := recvHarness(t, DefaultConfig())
	fresh := seg(0, 1000, packet.Unimportant, false)
	fresh.SentAt = 42
	r.Handle(fresh)
	retx := seg(1000, 1000, packet.Unimportant, false)
	retx.SentAt = 99
	retx.IsRetx = true
	r.Handle(retx)
	s.RunAll()
	if cat.acks[0].EchoTS != 42 {
		t.Fatalf("fresh echo = %v", cat.acks[0].EchoTS)
	}
	if cat.acks[1].EchoTS != 0 {
		t.Fatalf("retransmission echoed a timestamp (%v): Karn violated", cat.acks[1].EchoTS)
	}
}

func TestReceiverDuplicateData(t *testing.T) {
	s, r, cat := recvHarness(t, DefaultConfig())
	r.Handle(seg(0, 1000, packet.Unimportant, false))
	r.Handle(seg(0, 1000, packet.Unimportant, false)) // pure duplicate
	s.RunAll()
	if len(cat.acks) != 2 {
		t.Fatal("duplicates must still be acked (dupACK signal)")
	}
	if cat.acks[1].Ack != 1000 {
		t.Fatalf("dup ack = %d", cat.acks[1].Ack)
	}
	if r.Delivered() != 1000 {
		t.Fatalf("delivered = %d after duplicate", r.Delivered())
	}
}

func TestReceiverSackBlockCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSackBlocks = 2
	s, r, cat := recvHarness(t, cfg)
	// Four disjoint out-of-order ranges.
	for i := int64(1); i <= 4; i++ {
		r.Handle(seg(i*2000, 1000, packet.Unimportant, false))
	}
	s.RunAll()
	last := cat.acks[len(cat.acks)-1]
	if len(last.Sack()) != 2 {
		t.Fatalf("sack blocks = %d, want cap 2", len(last.Sack()))
	}
}
