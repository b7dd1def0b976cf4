package dcqcn

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

type ctrlCatcher struct {
	acks  []*packet.Packet
	nacks []*packet.Packet
	cnps  int
}

func (c *ctrlCatcher) Handle(p *packet.Packet) {
	switch p.Type {
	case packet.Ack:
		c.acks = append(c.acks, p)
	case packet.Nack:
		c.nacks = append(c.nacks, p)
	case packet.Cnp:
		c.cnps++
	}
}

func rxHarness(t *testing.T, mode Mode) (*sim.Sim, *Receiver, *ctrlCatcher) {
	t.Helper()
	s := sim.New()
	src := fabric.NewHost(s, 0)
	dst := fabric.NewHost(s, 1)
	fabric.Connect(s, src, 0, dst, 0, 40e9, sim.Microsecond)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000}
	rec := stats.NewRecorder().NewFlowRecord(flow)
	r := NewReceiver(s, dst, flow, DefaultConfig(mode), rec)
	dst.Register(1, r)
	cat := &ctrlCatcher{}
	src.Register(1, cat)
	return s, r, cat
}

func psn(seq int64, ce bool) *packet.Packet {
	return &packet.Packet{Flow: 1, Dst: 1, Type: packet.Data, Seq: seq, Len: 1000, CE: ce, SentAt: 1}
}

func TestGBNReceiverNacksOncePerHole(t *testing.T) {
	s, r, cat := rxHarness(t, GBN)
	r.Handle(psn(0, false))
	r.Handle(psn(2, false)) // out of order: NACK(1)
	r.Handle(psn(3, false)) // still expecting 1: suppressed
	r.Handle(psn(4, false)) // suppressed
	s.RunAll()
	if len(cat.nacks) != 1 || cat.nacks[0].Ack != 1 {
		t.Fatalf("nacks = %v", cat.nacks)
	}
	if r.Delivered() != 1 {
		t.Fatalf("delivered = %d (GBN discards OOO)", r.Delivered())
	}
	// The retransmission of 1 arrives: in-order progress resumes and a
	// NEW hole may be nacked again.
	r.Handle(psn(1, false))
	r.Handle(psn(3, false)) // hole at 2 now
	s.RunAll()
	if len(cat.nacks) != 2 || cat.nacks[1].Ack != 2 {
		t.Fatalf("nacks after recovery = %v", cat.nacks)
	}
}

func TestGBNReceiverAcksInOrder(t *testing.T) {
	s, r, cat := rxHarness(t, GBN)
	for i := int64(0); i < 5; i++ {
		r.Handle(psn(i, false))
	}
	s.RunAll()
	if len(cat.acks) != 5 {
		t.Fatalf("acks = %d", len(cat.acks))
	}
	if cat.acks[4].Ack != 5 {
		t.Fatalf("final cum = %d", cat.acks[4].Ack)
	}
	_ = r
}

func TestSelectiveReceiverSackBlocks(t *testing.T) {
	s, r, cat := rxHarness(t, SACK)
	r.Handle(psn(0, false))
	r.Handle(psn(3, false))
	r.Handle(psn(5, false))
	s.RunAll()
	last := cat.acks[len(cat.acks)-1]
	if last.Ack != 1 {
		t.Fatalf("cum = %d", last.Ack)
	}
	if len(last.Sack()) != 2 {
		t.Fatalf("sack = %v", last.Sack())
	}
	if r.Delivered() != 1 {
		t.Fatalf("delivered = %d", r.Delivered())
	}
	// Out-of-order data is retained (unlike GBN): filling the holes
	// advances cumulative past everything.
	r.Handle(psn(1, false))
	r.Handle(psn(2, false))
	r.Handle(psn(4, false))
	s.RunAll()
	if got := cat.acks[len(cat.acks)-1].Ack; got != 6 {
		t.Fatalf("cum after fill = %d", got)
	}
}

func TestCnpRateLimited(t *testing.T) {
	s, r, cat := rxHarness(t, GBN)
	// 10 CE-marked packets back-to-back: only one CNP within the 50us
	// window.
	for i := int64(0); i < 10; i++ {
		r.Handle(psn(i, true))
	}
	s.RunAll()
	if cat.cnps != 1 {
		t.Fatalf("cnps = %d, want 1 (interval suppression)", cat.cnps)
	}
	// After the interval, another CE elicits a fresh CNP.
	s2 := s.Now() + 60*sim.Microsecond
	s.At(s2, func() { r.Handle(psn(10, true)) })
	s.RunAll()
	if cat.cnps != 2 {
		t.Fatalf("cnps = %d after interval, want 2", cat.cnps)
	}
}

func TestReceiverCompletionFiresOnce(t *testing.T) {
	s, r, _ := rxHarness(t, SACK)
	fired := 0
	r.OnComplete = func() { fired++ }
	for i := int64(0); i < 10; i++ {
		r.Handle(psn(i, false))
	}
	r.Handle(psn(9, false)) // duplicate after completion
	s.RunAll()
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times", fired)
	}
}
