package transport

import (
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

func sentBoard(n int64, now sim.Time) *PktBoard {
	b := NewPktBoard(n)
	for p := int64(0); p < n; p++ {
		b.OnSent(p, false, now+sim.Time(p))
	}
	return b
}

func TestPktBoardAckAdvance(t *testing.T) {
	b := sentBoard(10, 0)
	if b.InFlight() != 10 {
		t.Fatalf("inflight = %d", b.InFlight())
	}
	if !b.Ack(4) {
		t.Fatal("Ack(4) should progress")
	}
	if b.Ack(4) {
		t.Fatal("duplicate Ack should not progress")
	}
	if b.Una != 4 || b.InFlight() != 6 {
		t.Fatalf("una=%d inflight=%d", b.Una, b.InFlight())
	}
	b.Ack(99) // beyond N clamps
	if !b.Complete() {
		t.Fatal("should be complete")
	}
}

func TestPktBoardSackAndLossEdge(t *testing.T) {
	b := sentBoard(10, 0)
	b.Sack([]packet.SackBlock{{Start: 5, End: 8}})
	if b.LostEdge != 5 {
		t.Fatalf("LostEdge = %d, want 5", b.LostEdge)
	}
	if !b.HasLoss() || b.PendingRetx() != 5 {
		t.Fatalf("pending retx = %d, want 5 (PSNs 0-4)", b.PendingRetx())
	}
	if got := b.NextRetx(); got != 0 {
		t.Fatalf("NextRetx = %d", got)
	}
	// inflight: 10 sent - 3 sacked - 5 lost = 2 (PSNs 8,9).
	if got := b.InFlight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	// Retransmit 0: it is back in flight.
	b.OnSent(0, true, 100)
	if got := b.InFlight(); got != 3 {
		t.Fatalf("inflight after retx = %d, want 3", got)
	}
	if got := b.NextRetx(); got != 1 {
		t.Fatalf("NextRetx after retx0 = %d", got)
	}
	// Cumulative ack collapses everything below.
	b.Ack(8)
	if b.HasLoss() {
		t.Fatal("no loss should remain after cum ack")
	}
	if got := b.InFlight(); got != 2 {
		t.Fatalf("inflight = %d, want 2 (PSNs 8,9)", got)
	}
}

func TestPktBoardRackMark(t *testing.T) {
	b := sentBoard(5, 0) // sent at times 0..4
	// Retransmit PSN 1 at t=10.
	b.Sack([]packet.SackBlock{{Start: 3, End: 5}})
	b.OnSent(1, true, 10)
	st := b.State(1)
	if !st.Retx() {
		t.Fatal("PSN1 should be marked retx")
	}
	// An echo proving time 20 round-tripped invalidates everything
	// unsacked sent before t=20, including the PSN1 retransmission.
	b.RackMark(20)
	st = b.State(1)
	if st.Retx() {
		t.Fatal("stale retransmission not invalidated")
	}
	if got := b.PendingRetx(); got != 3 {
		t.Fatalf("pending retx = %d, want 3 (PSNs 0,1,2)", got)
	}
	// Sacked packets are never marked lost.
	if b.State(3).Lost() || b.State(4).Lost() {
		t.Fatal("sacked packets marked lost")
	}
}

func TestPktBoardMarkAllLost(t *testing.T) {
	b := sentBoard(6, 0)
	b.Sack([]packet.SackBlock{{Start: 2, End: 3}})
	b.OnSent(0, false, 0) // pretend PSN0 was retransmitted earlier
	b.MarkAllLost()
	if got := b.PendingRetx(); got != 5 {
		t.Fatalf("pending retx = %d, want 5 (all but sacked PSN2)", got)
	}
	if b.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0 after collapse", b.InFlight())
	}
}

func TestPktBoardRewind(t *testing.T) {
	b := sentBoard(10, 0)
	b.Ack(3)
	b.Rewind(1) // below Una: clamps
	if b.Nxt != 3 {
		t.Fatalf("Nxt = %d, want clamp at Una", b.Nxt)
	}
	b.Rewind(7)
	if b.Nxt != 3 {
		t.Fatalf("Rewind must never advance Nxt; got %d", b.Nxt)
	}
}

func TestPktBoardFirstUnsacked(t *testing.T) {
	b := sentBoard(4, 0)
	b.Sack([]packet.SackBlock{{Start: 0, End: 2}})
	if got := b.FirstUnsacked(); got != 2 {
		t.Fatalf("FirstUnsacked = %d", got)
	}
	b.Sack([]packet.SackBlock{{Start: 2, End: 4}})
	if got := b.FirstUnsacked(); got != -1 {
		t.Fatalf("FirstUnsacked = %d, want -1", got)
	}
}

// TestBoardResetForgetsKeepStale: keepStale belongs to one flow. After a
// flow on the 1-byte clock, a board Reset for a flow without it must let
// RackMark invalidate a retransmission in flight again.
func TestBoardResetForgetsKeepStale(t *testing.T) {
	var b ByteBoard
	b.Reset(0, 4, true)
	b.N = 1_000
	b.Send(0, 1_000, false, 1)
	b.Ack(1_000)
	b.Reset(3_000, 4, false)
	for seq := int64(0); seq < 3_000; seq += 1_000 {
		b.Send(seq, seq+1_000, false, sim.Time(10+seq/1_000))
	}
	b.MarkAllLost()
	b.Send(0, 0, true, 20) // the retransmission in flight
	b.RackMark(30)
	if b.State(0).Retx() || b.PendingRetx() != 3_000 {
		t.Fatalf("RackMark after Reset(keepStale=false) kept the retransmission in flight: %+v, %d await retransmission",
			b.State(0), b.PendingRetx())
	}
}
