package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// flatBoard is PktBoard as it was while it held one PktState per packet
// of the message (34be250), kept as the oracle the window-following board
// is compared against. It allocates O(message) and scans [Una, Nxt) on
// every RackMark; nothing else about it differs.
type flatBoard struct {
	N, Una, Nxt            int64
	st                     []PktState
	sacked, lost, lostRetx int64
	LostEdge               int64
}

func newFlatBoard(n int64) *flatBoard { return &flatBoard{N: n, st: make([]PktState, n)} }

func (b *flatBoard) InFlight() int64    { return (b.Nxt - b.Una) - b.sacked - (b.lost - b.lostRetx) }
func (b *flatBoard) PendingRetx() int64 { return b.lost - b.lostRetx }

func (b *flatBoard) OnSent(psn int64, isRetx bool, now sim.Time) {
	s := &b.st[psn]
	s.EverSent = true
	s.LastSent = now
	if isRetx && s.Lost && !s.Retx {
		s.Retx = true
		b.lostRetx++
	}
	if psn >= b.Nxt {
		b.Nxt = psn + 1
	}
}

func (b *flatBoard) Ack(cum int64) bool {
	if cum <= b.Una {
		return false
	}
	if cum > b.N {
		cum = b.N
	}
	for p := b.Una; p < cum; p++ {
		s := &b.st[p]
		if s.Sacked {
			b.sacked--
		}
		if s.Lost {
			b.lost--
			if s.Retx {
				b.lostRetx--
			}
		}
	}
	b.Una = cum
	if b.LostEdge < cum {
		b.LostEdge = cum
	}
	return true
}

func (b *flatBoard) Sack(blocks []packet.SackBlock) {
	for _, blk := range blocks {
		lo, hi := max(blk.Start, b.Una), min(blk.End, b.Nxt)
		for p := lo; p < hi; p++ {
			s := &b.st[p]
			if s.Sacked {
				continue
			}
			s.Sacked = true
			b.sacked++
			if s.Lost {
				s.Lost = false
				b.lost--
				if s.Retx {
					s.Retx = false
					b.lostRetx--
				}
			}
		}
		if blk.Start > b.Una && blk.Start > b.LostEdge {
			b.LostEdge = blk.Start
		}
	}
}

func (b *flatBoard) ApplyLostEdge() (newLoss bool) {
	for p := b.Una; p < b.LostEdge; p++ {
		s := &b.st[p]
		if !s.Sacked && !s.Lost {
			s.Lost = true
			b.lost++
			newLoss = true
		}
	}
	return newLoss
}

func (b *flatBoard) RackMark(t sim.Time) (newLoss bool) {
	for p := b.Una; p < b.Nxt; p++ {
		s := &b.st[p]
		if s.Sacked || !s.EverSent || s.LastSent >= t {
			continue
		}
		if s.Retx {
			s.Retx = false
			b.lostRetx--
		}
		if !s.Lost {
			s.Lost = true
			b.lost++
			newLoss = true
		}
	}
	return newLoss
}

func (b *flatBoard) MarkAllLost() {
	b.LostEdge = b.Nxt
	for p := b.Una; p < b.Nxt; p++ {
		s := &b.st[p]
		if s.Retx {
			s.Retx = false
			b.lostRetx--
		}
		if !s.Sacked && !s.Lost {
			s.Lost = true
			b.lost++
		}
	}
}

func (b *flatBoard) Rewind(psn int64) {
	if psn < b.Una {
		psn = b.Una
	}
	if psn < b.Nxt {
		b.Nxt = psn
	}
}

func (b *flatBoard) NextRetx() int64 {
	for p := b.Una; p < b.Nxt; p++ {
		if s := &b.st[p]; s.Lost && !s.Retx {
			return p
		}
	}
	return -1
}

func (b *flatBoard) FirstUnsacked() int64 {
	for p := b.Una; p < b.Nxt; p++ {
		if !b.st[p].Sacked {
			return p
		}
	}
	return -1
}

// TestPktBoardEqualsFlatBoard drives the window-following board and the
// flat one through the same seeded sequences of everything a sender does
// to its scoreboard, and compares every counter, both query results and
// State(p) for every p in [Una, Nxt) after each step. Half the runs are
// selective (SACK blocks, loss-edge and RACK marking, retransmissions,
// RTO collapse), half go-back-N (rewinds, acknowledgments that overtake
// the rewound Nxt); the boards trade backings through one shared list.
func TestPktBoardEqualsFlatBoard(t *testing.T) {
	var mem PktBoards
	steps := map[string]int{}
	rackArms := map[bool]int{} // RackMark calls by "no re-sent entry in the window"
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gbn := seed%2 == 0
		n := int64(1 + rng.Intn(600))
		got, want := &PktBoard{mem: &mem}, newFlatBoard(n)
		got.Reset(n)
		now := sim.Time(0)
		check := func(step string) {
			steps[step]++
			ctx := fmt.Sprintf("seed %d after %s", seed, step)
			if got.N != want.N || got.Una != want.Una || got.Nxt != want.Nxt || got.LostEdge != want.LostEdge ||
				got.sacked != want.sacked || got.lost != want.lost || got.lostRetx != want.lostRetx ||
				got.InFlight() != want.InFlight() || got.PendingRetx() != want.PendingRetx() {
				t.Fatalf("%s: board %+v\nflat N=%d Una=%d Nxt=%d LostEdge=%d sacked=%d lost=%d lostRetx=%d", ctx, got,
					want.N, want.Una, want.Nxt, want.LostEdge, want.sacked, want.lost, want.lostRetx)
			}
			if g, w := got.NextRetx(), want.NextRetx(); g != w {
				t.Fatalf("%s: NextRetx %d, flat %d", ctx, g, w)
			}
			if g, w := got.FirstUnsacked(), want.FirstUnsacked(); g != w {
				t.Fatalf("%s: FirstUnsacked %d, flat %d", ctx, g, w)
			}
			resent := int64(0)
			for p := got.Una; p < got.end(); p++ {
				if got.st[p-got.off].resent {
					resent++
				}
			}
			if resent != got.resent {
				t.Fatalf("%s: resent counter %d, recount %d", ctx, got.resent, resent)
			}
			for p := want.Una; p < want.Nxt; p++ {
				if g, w := got.State(p), want.st[p]; g != w {
					t.Fatalf("%s: State(%d) = %+v, flat %+v", ctx, p, g, w)
				}
			}
		}
		send := func(psn int64, isRetx bool) {
			now += sim.Time(rng.Intn(3))
			got.OnSent(psn, isRetx, now)
			want.OnSent(psn, isRetx, now)
		}
		for op := 0; op < 4000 && want.Una < n; op++ {
			inWindow := func() int64 { return want.Una + rng.Int63n(max(want.Nxt-want.Una, 1)) }
			switch r := rng.Intn(100); {
			case r < 45: // what a sender does most: retransmit if asked to, else send fresh
				if psn := want.NextRetx(); psn >= 0 && rng.Intn(4) > 0 {
					send(psn, true)
					check("retransmission")
				} else if want.Nxt < n {
					send(want.Nxt, gbn && rng.Intn(2) == 0)
					check("fresh send")
				}
			case r < 70:
				cum := inWindow() + 1
				if gbn && rng.Intn(8) == 0 {
					cum = min(n, cum+rng.Int63n(40)) // first transmissions acknowledged past a rewound Nxt
				}
				if g, w := got.Ack(cum), want.Ack(cum); g != w {
					t.Fatalf("seed %d: Ack(%d) progressed %v, flat %v", seed, cum, g, w)
				}
				check("ack")
			case r < 80 && !gbn:
				var blocks []packet.SackBlock
				for k := rng.Intn(3); k >= 0 && want.Nxt > want.Una; k-- {
					start := inWindow()
					blocks = append(blocks, packet.SackBlock{Start: start, End: min(want.Nxt, start+1+rng.Int63n(6))})
				}
				got.Sack(blocks)
				want.Sack(blocks)
				check("sack")
				if g, w := got.ApplyLostEdge(), want.ApplyLostEdge(); g != w {
					t.Fatalf("seed %d: ApplyLostEdge %v, flat %v", seed, g, w)
				}
				check("loss edge")
			case r < 90 && !gbn:
				// The echo of some packet in the window, the way an ACK carries it.
				at := now
				if want.Nxt > want.Una {
					at = want.st[inWindow()].LastSent
				}
				rackArms[got.resent == 0]++
				if g, w := got.RackMark(at), want.RackMark(at); g != w {
					t.Fatalf("seed %d: RackMark(%v) %v, flat %v", seed, at, g, w)
				}
				check("rack")
			case r < 93 && !gbn:
				got.MarkAllLost()
				want.MarkAllLost()
				check("collapse")
			case r < 96 && gbn:
				psn := inWindow() - rng.Int63n(3)
				got.Rewind(psn)
				want.Rewind(psn)
				check("rewind")
			case r < 98 && gbn && want.Nxt < want.Una:
				send(want.Nxt, true) // below Una, until Nxt catches up
				check("send below una")
			}
		}
		got.release()
	}
	for _, step := range []string{"retransmission", "fresh send", "ack", "sack", "loss edge", "rack", "collapse", "rewind", "send below una"} {
		if steps[step] == 0 {
			t.Errorf("no sequence reached step %q", step)
		}
	}
	if rackArms[true] == 0 || rackArms[false] == 0 {
		t.Errorf("RackMark calls by arm (in order: %d, full scan: %d): one was never taken", rackArms[true], rackArms[false])
	}
	t.Logf("steps: %v; RackMark in-order %d, full scan %d", steps, rackArms[true], rackArms[false])
}

// TestPktBoardFollowsWindow: a board holds the window, not the message.
// 30,000 packets pass through at 64 in flight on a backing that never has
// more than twice that many slots, and a board for a 65,536-packet
// message is a few words until packets leave.
func TestPktBoardFollowsWindow(t *testing.T) {
	const n, window = 30_000, 64
	b := NewPktBoard(n)
	peak := 0
	for p := int64(0); p < n; p++ {
		if p >= window {
			b.Ack(p - window + 1)
		}
		b.OnSent(p, false, sim.Time(p))
		if b.InFlight() != min(p+1, window) {
			t.Fatalf("after packet %d: %d in flight", p, b.InFlight())
		}
		peak = max(peak, cap(b.st))
	}
	if peak > 2*window {
		t.Fatalf("a %d-packet message at %d in flight grew the board to %d slots, limit %d", n, window, peak, 2*window)
	}
	b.Ack(n)
	if !b.Complete() || b.InFlight() != 0 || len(b.st) != 0 {
		t.Fatalf("complete=%v inflight=%d live slots=%d after the last ACK", b.Complete(), b.InFlight(), len(b.st))
	}

	var big *PktBoard
	if allocs := testing.AllocsPerRun(10, func() { big = NewPktBoard(1 << 16) }); allocs > 1 || big.st != nil {
		t.Fatalf("NewPktBoard(1<<16) allocated %v times and %d slots before any packet was sent", allocs, cap(big.st))
	}
}
