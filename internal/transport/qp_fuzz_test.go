package transport_test

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// alternation is a core.Audit that requires important sends and clears
// to strictly alternate: at most one important packet in flight.
type alternation struct {
	t        *testing.T
	inFlight bool
	sends    int
}

func (a *alternation) OnImportantSend(f packet.FlowID, now sim.Time) {
	if a.inFlight {
		a.t.Fatalf("%v: flow %d sent an important packet with one already in flight", now, f)
	}
	a.inFlight = true
	a.sends++
}

func (a *alternation) OnImportantClear(f packet.FlowID, now sim.Time) {
	if !a.inFlight {
		a.t.Fatalf("%v: flow %d cleared an important packet it never sent", now, f)
	}
	a.inFlight = false
}

// FuzzRoCERecovery runs one message over a seeded lossy two-host star on
// any RoCE transport and checks what loss recovery owes whatever the
// loss pattern: the flow terminates, a completed message arrived whole
// and was announced once, window-mode TLT keeps at most one important
// packet in flight, the sender scoreboard's counters stay consistent
// with its per-PSN state at every packet event, and once the run drains
// every packet and extension is back on the pool. Run with
//
//	go test -run '^$' -fuzz FuzzRoCERecovery ./internal/transport/
func FuzzRoCERecovery(f *testing.F) {
	f.Add(uint8(0), false, uint32(24_300), int64(1), uint8(12))
	f.Add(uint8(1), true, uint32(64_000), int64(2), uint8(25))
	f.Add(uint8(2), true, uint32(150_700), int64(3), uint8(12))
	f.Add(uint8(3), true, uint32(clockedTailSize), int64(4), uint8(0))
	f.Fuzz(func(t *testing.T, which uint8, tlt bool, size uint32, seed int64, dropPct uint8) {
		name := roceTransports[int(which)%len(roceTransports)]
		flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1 + int64(size%300_000)}
		pkts := (flow.Size + transport.MSS - 1) / transport.MSS
		s, n := roceStar()
		loss := seededLoss(seed, int(dropPct%50))
		// A packet lost on the wire is never Put: it takes its extensions
		// with it.
		var lostPkts, lostExts int
		lose := func(drop func(*packet.Packet) bool) func(*packet.Packet) bool {
			return func(p *packet.Packet) bool {
				if !drop(p) {
					return false
				}
				lostPkts++
				if p.Sack() != nil {
					lostExts++
				}
				if p.NumINT() > 0 {
					lostExts++
				}
				return true
			}
		}
		n.Hosts[0].NICTx().DropWhen(lose(loss(0)))
		n.Hosts[1].NICTx().DropWhen(lose(loss(1)))

		audit := &alternation{t: t}
		rec := stats.NewRecorder()
		qp := startRoCE(n, name, roceOpts{tlt: core.Config{Enabled: tlt, Audit: audit}, maxRetries: 6, backoff: 2}, flow, rec, nil)
		completes := 0
		*qp.complete = func() { completes++ }

		checkBoard := func(now sim.Time, _ string, _ *packet.Packet) {
			b := qp.board
			pending := int64(0)
			for p := b.Una; p < b.Nxt; p++ {
				if st := b.State(p); st.Lost && !st.Retx {
					pending++
				}
			}
			if b.Una > b.Nxt || b.InFlight() < 0 || b.PendingRetx() != pending {
				t.Fatalf("%v: scoreboard una=%d nxt=%d inflight=%d pendingRetx=%d, recount %d",
					now, b.Una, b.Nxt, b.InFlight(), b.PendingRetx(), pending)
			}
		}
		n.Hosts[0].Trace, n.Hosts[1].Trace = checkBoard, checkBoard

		s.Run(sim.Second)
		fr := rec.Flows[0]
		switch {
		case !fr.Done && !fr.Aborted:
			t.Fatalf("flow neither completed nor aborted: %v", qp.status())
		case fr.Done && (qp.delivered() != pkts || completes != 1):
			t.Fatalf("completed with %d of %d packets delivered, announced %d times", qp.delivered(), pkts, completes)
		case !fr.Done && completes != 0:
			t.Fatalf("OnComplete fired %d times for a flow that is not done", completes)
		}
		if window := name == "dcqcn-irn" || name == "hpcc"; tlt && window && audit.sends == 0 {
			t.Fatal("window-mode TLT flow sent no important packet")
		}
		// The run has drained: every packet and every extension is back on
		// the pool but the ones lost on the wire.
		pool := n.Pool
		if live := int(pool.News + pool.Reuses - pool.Puts); live != lostPkts || pool.ExtsOut() != lostExts {
			t.Fatalf("drained run: %d packets and %d extensions off the pool, %d and %d lost on the wire",
				live, pool.ExtsOut(), lostPkts, lostExts)
		}
	})
}
