package transport_test

import (
	"fmt"
	"strings"
	"testing"

	"tlt/internal/core"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
	"tlt/internal/transport/dcqcn"
	"tlt/internal/transport/hpcc"
)

// TestQPResetEqualsFresh: a queue pair that has carried another flow —
// other size, other mode, completed in the middle of loss recovery or
// aborted — and is Reset carries its next flow exactly as a new one
// would. The 8 cells of TestRoCEWireTraceMatchesParent for each of
// dcqcn-{gbn,sack,irn} and hpcc, run on such pairs (servedStock), must
// reproduce the committed hashes. tcp.TestResetEqualsFresh is the same
// property for tcp and dctcp on the one reliability core.
//
// Mutation-checked: fails when the core's Reset carries backoff, retries
// or Win over, when QPReceiver.Reset keeps a non-empty RangeSet or the
// delivery point, and when a Board.Reset hands the board on unemptied
// (testdata/mutants).
func TestQPResetEqualsFresh(t *testing.T) {
	cells := int64(0)
	for _, name := range roceTransports {
		t.Run(name, func(t *testing.T) {
			checkParentTraces(t, []string{name}, func(_, name string, _ int64) *qpStock {
				cells++
				return servedStock(t, name, cells)
			})
		})
	}
}

// TestQPResetMidFlowPanics: Reset and Clear refuse a sender whose flow is
// open; Reset also refuses one whose RTO tick is still queued — the tick
// fires as a no-op after the flow ends — which Clear, the operation for a
// sender whose simulator is gone, lets go of.
func TestQPResetMidFlowPanics(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	for _, name := range roceTransports {
		s, n := roceStar()
		rec := stats.NewRecorder()
		stock := new(qpStock)
		f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 64_000}
		status := startRoCE(n, name, roceOpts{noLow: true}, f, rec, stock).status
		var reset, clear func()
		if name == "hpcc" {
			p := stock.out.hpcc[0]
			cfg := hpcc.DefaultConfig(n.BaseRTT)
			reset = func() { p.snd.Reset(n.Hosts[0], f, cfg, rec.Flows[0]) }
			clear = p.snd.Clear
		} else {
			c := stock.out.dcqcn[0]
			reset = func() { c.Sender.Reset(n.Hosts[0], f, dcqcn.DefaultConfig(dcqcn.SACK), rec.Flows[0]) }
			clear = c.Sender.Clear
		}
		s.Run(5 * sim.Microsecond)
		if fs := status(); fs.Done || fs.AckedBytes+fs.OutstandingBytes == 0 {
			t.Fatalf("%s: want a flow in progress at 5 µs, got %v", name, fs)
		}
		for op, f := range map[string]func(){"Reset": reset, "Clear": clear} {
			if msg := panics(f); !strings.Contains(msg, "mid-flow") {
				t.Errorf("%s: %s of a sender 5 µs into its flow: %s, want a mid-flow panic", name, op, msg)
			}
		}
		s.Run(200 * sim.Microsecond) // the flow is over, its 300 µs tick still queued
		if !rec.Flows[0].Done {
			t.Fatalf("%s: flow not done at 200 µs", name)
		}
		if msg := panics(reset); !strings.Contains(msg, "tick still scheduled") {
			t.Errorf("%s: Reset with the RTO tick queued: %s, want a panic naming it", name, msg)
		}
		if msg := panics(func() { clear(); reset() }); msg != "<nil>" {
			t.Errorf("%s: Clear then Reset of a finished sender panicked: %s", name, msg)
		}
	}
}

// qpStock is a stock of queue pairs for startRoCE to start flows on, the
// way a grid slot's arena hands them out: the ones restock put back, and
// new ones when those run out. It remembers what it handed out.
type qpStock struct {
	boards *transport.PktBoards // non-nil: senders trade scoreboard backings through it

	dcqcn []*dcqcn.Conn
	hpcc  []hpccPair
	out   struct {
		dcqcn []*dcqcn.Conn
		hpcc  []hpccPair
	}
}

type hpccPair struct {
	snd *hpcc.Sender
	rcv *hpcc.Receiver
}

func (k *qpStock) dcqcnConn() *dcqcn.Conn {
	var c *dcqcn.Conn
	if n := len(k.dcqcn) - 1; n >= 0 {
		c, k.dcqcn = k.dcqcn[n], k.dcqcn[:n]
	} else {
		c = &dcqcn.Conn{Sender: new(dcqcn.Sender), Receiver: new(dcqcn.Receiver)}
		if k.boards != nil {
			c.Sender.Board.Share(k.boards)
		}
	}
	k.out.dcqcn = append(k.out.dcqcn, c)
	return c
}

func (k *qpStock) hpccPair() (*hpcc.Sender, *hpcc.Receiver) {
	var p hpccPair
	if n := len(k.hpcc) - 1; n >= 0 {
		p, k.hpcc = k.hpcc[n], k.hpcc[:n]
	} else {
		p = hpccPair{new(hpcc.Sender), new(hpcc.Receiver)}
		if k.boards != nil {
			p.snd.Board.Share(k.boards)
		}
	}
	k.out.hpcc = append(k.out.hpcc, p)
	return p.snd, p.rcv
}

// restock puts every queue pair handed out back in stock; park clears
// them first, as the arena does between cells.
func (k *qpStock) restock(park bool) {
	for _, c := range k.out.dcqcn {
		if park {
			c.Sender.Clear()
			c.Receiver.Clear()
		}
		k.dcqcn = append(k.dcqcn, c)
	}
	for _, p := range k.out.hpcc {
		if park {
			p.snd.Clear()
			p.rcv.Clear()
		}
		k.hpcc = append(k.hpcc, p)
	}
	k.out.dcqcn, k.out.hpcc = nil, nil
}

// servedStock returns a stock of four queue pairs that have each carried
// a flow A, on another network than the one they will serve next and as
// unlike the cell's flows as the type allows: dcqcn pairs ran the next
// mode round (gbn → sack → irn → gbn), TLT is on whatever the cell uses,
// sizes, start times and the loss pattern are others. Three As run to
// their end through 15% loss and CE marks (with a retry limit of three
// the odd one gives up on lost ACKs); the fourth has one packet
// black-holed and aborts after three backed-off timeouts, with everything
// above the hole out of order at its receiver and the window on its
// scoreboard.
//
// How the pairs get from A to the cell alternates with variant. Odd: A's
// simulator runs dry, so every RTO tick has fired, and the pairs are
// Reset as they stand — what Reset alone must undo. Even: A's simulator
// stops the instant its last flow ends, as a grid cell does, which leaves
// ticks queued in it; the pairs are Cleared, share one scoreboard list,
// and then Reset — the arena's path.
func servedStock(t *testing.T, name string, variant int64) *qpStock {
	t.Helper()
	arenaPath := variant%2 == 0
	stock := new(qpStock)
	if arenaPath {
		stock.boards = new(transport.PktBoards)
	}
	nameA := map[string]string{"dcqcn-gbn": "dcqcn-sack", "dcqcn-sack": "dcqcn-irn", "dcqcn-irn": "dcqcn-gbn", "hpcc": "hpcc"}[name]

	s, n := roceStar()
	rec := stats.NewRecorder()
	const abortID = 104
	loss := seededLoss(variant+100, 15)
	for dir, host := range n.Hosts {
		drop := loss(int64(dir))
		host.NICTx().DropWhen(func(p *packet.Packet) bool {
			return drop(p) || (p.Flow == abortID && p.Type == packet.Data && p.Seq == 3)
		})
	}
	o := roceOpts{tlt: core.Config{Enabled: true}, maxRetries: 3, backoff: 2, noLow: true}
	var ends []qpEnds
	for i := int64(0); i < 4; i++ {
		size := traceSizes[(variant+3*i)%int64(len(traceSizes))]
		if i == 3 {
			size = 24_300
		}
		ends = append(ends, startRoCE(n, nameA, o, &transport.Flow{ID: packet.FlowID(101 + i), Src: 0, Dst: 1, Size: size,
			Start: sim.Time(7*i) * sim.Microsecond}, rec, stock))
	}
	if arenaPath {
		var poll func()
		poll = func() {
			for _, qp := range ends {
				if !qp.status().Done { // the sender's view: a queue pair is parked whole
					s.After(sim.Microsecond, poll)
					return
				}
			}
			s.Stop()
		}
		s.After(0, poll)
	}
	s.Run(sim.Second)
	for i, fr := range rec.Flows {
		if blackholed := fr.Flow.ID == abortID; !ends[i].status().Done || (blackholed && (fr.Done || !fr.Aborted)) {
			t.Fatalf("%s variant %d: flow A %d done=%v aborted=%v: %v", nameA, variant, fr.Flow.ID, fr.Done, fr.Aborted, ends[i].status())
		}
	}
	// The state the aborted A exists for: Reset must clear all of it.
	if st, b := ends[3].status(), ends[3].board; !st.Aborted || b.Una != 3 || b.Nxt <= 4 || ends[3].delivered() != 3 {
		t.Fatalf("%s variant %d: aborted A left una=%d nxt=%d delivered=%d (%v), scenario too gentle",
			nameA, variant, b.Una, b.Nxt, ends[3].delivered(), st)
	}
	stock.restock(arenaPath)
	return stock
}
