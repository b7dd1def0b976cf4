package transport_test

import (
	"fmt"
	"testing"

	"tlt/internal/core"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
	"tlt/internal/transport/tcp"
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

// recoveryTransports are what FuzzRecovery picks from: the RoCE family in
// the order the committed corpus indexes, then the tcp family.
var recoveryTransports = []string{"dcqcn-gbn", "dcqcn-sack", "dcqcn-irn", "hpcc", "tcp", "dctcp"}

// entryState is what the counter recount reads of a board entry.
type entryState interface {
	Sacked() bool
	Lost() bool
	Retx() bool
}

// boardCounts is the part of a transport.Board the recount checks.
type boardCounts interface {
	End(seq int64) int64
	InFlight() int64
	PendingRetx() int64
	Lost() int64
}

// recount walks the ranges of [una, nxt) and checks the board's counters,
// which are weighted by range length, against what its entries say.
func recount(una, nxt int64, b boardCounts, state func(int64) entryState) error {
	var sacked, lost, pending int64
	for seq := una; seq < nxt; {
		end := b.End(seq)
		st := state(seq)
		switch {
		case st.Sacked():
			sacked += end - seq
		case st.Lost():
			lost += end - seq
			if !st.Retx() {
				pending += end - seq
			}
		}
		seq = end
	}
	if una > nxt || b.InFlight() < 0 || b.PendingRetx() != pending || b.Lost() != lost ||
		(nxt-una)-b.InFlight()-b.PendingRetx() != sacked {
		return fmt.Errorf("scoreboard una=%d nxt=%d inflight=%d pendingRetx=%d lost=%d, recount sacked=%d lost=%d pending=%d",
			una, nxt, b.InFlight(), b.PendingRetx(), b.Lost(), sacked, lost, pending)
	}
	return nil
}

// FuzzRecovery runs one message over a seeded lossy two-host star on any
// RoCE or tcp-family transport and checks what loss recovery owes whatever
// the loss pattern: the flow terminates, a completed message arrived
// whole and was announced once, window-mode TLT keeps at most one
// important packet in flight, the sender scoreboard's length-weighted
// counters equal a recount of its entries at every packet event, and once
// the run drains every packet and extension is back on the pool. Run with
//
//	go test -run '^$' -fuzz FuzzRecovery ./internal/transport/
func FuzzRecovery(f *testing.F) {
	f.Add(uint8(0), false, uint32(24_300), int64(1), uint8(12))
	f.Add(uint8(1), true, uint32(64_000), int64(2), uint8(25))
	f.Add(uint8(2), true, uint32(150_700), int64(3), uint8(12))
	f.Add(uint8(3), true, uint32(clockedTailSize), int64(4), uint8(0))
	f.Add(uint8(4), false, uint32(64_000), int64(5), uint8(20))
	f.Add(uint8(5), true, uint32(150_700), int64(6), uint8(25))
	f.Fuzz(func(t *testing.T, which uint8, tlt bool, size uint32, seed int64, dropPct uint8) {
		name := recoveryTransports[int(which)%len(recoveryTransports)]
		flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1 + int64(size%300_000)}
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
		tltCfg := core.Config{Enabled: tlt, Audit: audit}
		rec := stats.NewRecorder()
		completes := 0
		var status func() transport.FlowStatus
		var delivered func() int64 // in the board's units
		var check func() error
		want := (flow.Size + transport.MSS - 1) / transport.MSS
		window := tlt && name != "dcqcn-gbn" && name != "dcqcn-sack"
		if name == "tcp" || name == "dctcp" {
			cfg := tcp.DefaultConfig()
			if name == "dctcp" {
				cfg = tcp.DCTCPConfig()
			}
			cfg.TLT = tltCfg
			cfg.RTO.Min, cfg.RTO.MaxRetries = 200*sim.Microsecond, 6
			c := tcp.StartFlow(s, n.Hosts[0], n.Hosts[1], flow, cfg, rec, func(fr *stats.FlowRecord) {
				if fr.Done {
					completes++
				}
			})
			b := &c.Sender.Board
			status, delivered, want = c.Sender.FlowStatus, c.Receiver.Delivered, flow.Size
			check = func() error {
				return recount(b.Una, b.Nxt, b, func(seq int64) entryState { return b.State(seq) })
			}
		} else {
			qp := startRoCE(n, name, roceOpts{tlt: tltCfg, maxRetries: 6, backoff: 2}, flow, rec, nil)
			*qp.complete = func() { completes++ }
			b := qp.board
			status, delivered = qp.status, qp.delivered
			check = func() error {
				return recount(b.Una, b.Nxt, b, func(seq int64) entryState { return b.State(seq) })
			}
		}
		checkBoard := func(now sim.Time, _ string, _ *packet.Packet) {
			if err := check(); err != nil {
				t.Fatalf("%v: %v", now, err)
			}
		}
		n.Hosts[0].Trace, n.Hosts[1].Trace = checkBoard, checkBoard

		s.Run(sim.Second)
		fr := rec.Flows[0]
		switch {
		case !fr.Done && !fr.Aborted:
			t.Fatalf("flow neither completed nor aborted: %v", status())
		case fr.Done && (delivered() != want || completes != 1):
			t.Fatalf("completed with %d of %d delivered, announced %d times", delivered(), want, completes)
		case !fr.Done && completes != 0:
			t.Fatalf("completion announced %d times for a flow that is not done", completes)
		}
		if window && audit.sends == 0 {
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
