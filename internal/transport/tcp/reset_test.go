package tcp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// TestResetMidFlowPanics: recycling a sender that still has data
// outstanding would splice two flows' state together, so Reset and Clear
// refuse a sender whose flow is open. Once it is over — tcp takes its
// ticks off the queue as its flow ends — Reset, and Clear then Reset,
// go through.
func TestResetMidFlowPanics(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	for _, law := range []struct {
		name string
		cfg  Config
	}{{"tcp", DefaultConfig()}, {"dctcp", DCTCPConfig()}} {
		name, cfg := law.name, law.cfg
		s, n := starNet(t, 2, fabric.SwitchConfig{})
		rec := stats.NewRecorder()
		f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1_000_000}
		snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
		reset := func() { snd.Reset(n.Hosts[0], f, cfg, rec.Flows[0]) }
		s.Run(100 * sim.Microsecond)
		if fs := snd.FlowStatus(); fs.Done || fs.AckedBytes+fs.OutstandingBytes == 0 {
			t.Fatalf("%s: want a flow in progress at 100 µs, got %v", name, fs)
		}
		for op, f := range map[string]func(){"Reset": reset, "Clear": snd.Clear} {
			if msg := panics(f); !strings.Contains(msg, "mid-flow") {
				t.Errorf("%s: %s of a sender 100 µs into its flow: %s, want a mid-flow panic", name, op, msg)
			}
		}
		s.Run(10 * sim.Millisecond)
		if !rec.Flows[0].Done {
			t.Fatalf("%s: flow not done at 10 ms", name)
		}
		if msg := panics(reset); msg != "<nil>" {
			t.Errorf("%s: Reset of a finished sender panicked: %s", name, msg)
		}
		if msg := panics(func() { snd.Clear(); reset() }); msg != "<nil>" {
			t.Errorf("%s: Clear then Reset of a finished sender panicked: %s", name, msg)
		}
	}
}

// resetCase is one reset-equals-fresh scenario of tcp or dctcp: flow
// A runs on a pair of endpoints, then flow B runs either on the same pair
// after Reset or on a new pair.
type resetCase struct {
	name         string
	cfg          Config
	sizeA, sizeB int64
	abortA       bool  // A is black-holed and gives up mid-recovery
	seed         int64 // selects which of B's (and a completing A's) packets drop
}

// resetStart is when B starts: long after A has completed or aborted
// and its last packet has drained, so both worlds enter B with the same
// network history.
const resetStart = 100 * sim.Millisecond

// resetCases returns the 36 cases: {tcp, dctcp} × {base, TLP, TLT} × 6,
// sizes from one to 300 segments — below, at and above an MSS boundary,
// inside the initial window, and several windows long in either order —
// every other A aborting.
func resetCases() []resetCase {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"tlp", func(c *Config) { c.TLP = true }},
		{"tlt", func(c *Config) { c.TLT = core.Config{Enabled: true} }},
	}
	sizes := []int64{1, 999, 1_000, 3_500, 8_000, 64_000, 300_000}
	rng := rand.New(rand.NewSource(20210426))
	var cases []resetCase
	for _, base := range []struct {
		name string
		cfg  Config
	}{{"tcp", DefaultConfig()}, {"dctcp", DCTCPConfig()}} {
		for _, v := range variants {
			for i := 0; i < 6; i++ {
				c := resetCase{
					cfg:    base.cfg,
					sizeA:  sizes[rng.Intn(len(sizes))],
					sizeB:  sizes[rng.Intn(len(sizes))],
					abortA: i%2 == 1,
					seed:   rng.Int63(),
				}
				v.mod(&c.cfg)
				c.cfg.RTO.Min = 200 * sim.Microsecond
				c.cfg.RTO.MaxRetries = 4
				if c.abortA {
					c.sizeA = sizes[4+rng.Intn(3)] // long enough to be cut off mid-stream
				}
				c.name = fmt.Sprintf("%s+%s A=%d B=%d abortA=%v seed=%d", base.name, v.name, c.sizeA, c.sizeB, c.abortA, c.seed)
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// TestResetEqualsFresh is the property endpoint recycling rests on: a
// sender — with its receiver — that has carried another flow, whatever
// loss-recovery state that flow left behind, carries its next flow
// exactly as new endpoints would. Each of resetCases runs on new and on
// recycled endpoints: B's wire trace and FlowRecord must be equal, half
// the recycled cases trading scoreboards through a shared list.
// transport.TestQPResetEqualsFresh is the same property for the RoCE
// queue pairs on the one reliability core.
//
// Mutation-checked: fails when the core's Reset carries backoff or
// retries over, when the responder core's Reset keeps the delivery point
// or a non-empty range set, and when tcp's Reset keeps DCTCP's alpha
// (testdata/mutants).
func TestResetEqualsFresh(t *testing.T) {
	cases := resetCases()
	var lossyB, regrown int
	for _, c := range cases {
		wantTrace, wantRec := runAB(t, c, false)
		gotTrace, gotRec := runAB(t, c, true)
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Errorf("%s: flow record on recycled endpoints\n got %+v\nwant %+v", c.name, gotRec, wantRec)
		}
		if len(gotTrace) != len(wantTrace) {
			t.Errorf("%s: %d packets on recycled endpoints, %d on fresh", c.name, len(gotTrace), len(wantTrace))
		}
		for i := 0; i < len(gotTrace) && i < len(wantTrace); i++ {
			if gotTrace[i] != wantTrace[i] {
				t.Errorf("%s: packet %d differs\n got %s\nwant %s", c.name, i, gotTrace[i], wantTrace[i])
				break
			}
		}
		if wantRec.RetxPackets > 0 {
			lossyB++
		}
		if c.sizeB > c.sizeA {
			regrown++
		}
	}
	// The case table must reach the paths it is there for.
	if lossyB < len(cases)/4 || regrown == 0 {
		t.Fatalf("case table too gentle: %d/%d B flows retransmitted, %d regrew the scoreboard",
			lossyB, len(cases), regrown)
	}
}

// runAB runs A then B on a two-host star and returns the tx/rx sequence
// both hosts saw for B, and B's flow record.
func runAB(t *testing.T, c resetCase, recycle bool) ([]string, stats.FlowRecord) {
	t.Helper()
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	src, dst := n.Hosts[0], n.Hosts[1]
	rec := stats.NewRecorder()

	// Drops are a pure function of (seed, flow, direction, seq, how often
	// that seq was sent), at most twice per seq so every flow can finish.
	// Two hosts at one link rate never build a queue, so the same draw
	// also plays the marking switch: DCTCP's alpha has to be part of the
	// state a Reset clears.
	// An aborting A instead loses segment 1 always and everything after
	// its first six data packets: the receiver is left holding an
	// out-of-order range and the sender dies in RTO backoff.
	sent := map[[3]int64]int64{}
	var dataA int
	lossy := func(dir int64) func(*packet.Packet) bool {
		return func(p *packet.Packet) bool {
			if c.abortA && p.Flow == 1 {
				if dir == 1 {
					return false
				}
				dataA++
				return p.Seq == int64(c.cfg.MSS) || dataA > 6
			}
			key := [3]int64{int64(p.Flow), dir, p.Seq + p.Ack}
			nth := sent[key]
			sent[key]++
			h := rand.New(rand.NewSource(c.seed ^ key[0]<<40 ^ key[1]<<36 ^ key[2]<<4 ^ nth)).Intn(100)
			p.CE = p.ECT && h >= 60
			return nth < 2 && h < 15
		}
	}
	src.NICTx().DropWhen(lossy(0))
	dst.NICTx().DropWhen(lossy(1))

	// For A, the trace only notes what the aborting case must reach: an
	// out-of-order range at the receiver (an ACK with SACK blocks) and,
	// with TLP, a tail probe — data sent on a timer, not on an ACK's
	// arrival, that is not an RTO's retransmission of the missing
	// segment 1.
	var seen []string
	var oooA, probedA bool
	lastAck := sim.Time(-1)
	for _, h := range n.Hosts {
		id := h.ID()
		h.Trace = func(now sim.Time, dir string, p *packet.Packet) {
			if p.Flow == 1 {
				switch {
				case dir == "rx" && p.Type == packet.Ack:
					lastAck, oooA = now, oooA || len(p.Sack()) > 0
				case dir == "tx" && p.Type == packet.Data && now > 0 && now != lastAck && p.Seq != int64(c.cfg.MSS):
					probedA = true
				}
				return
			}
			seen = append(seen, fmt.Sprintf("%v h%d %s type=%d seq=%d len=%d ack=%d sack=%v mark=%d ce=%v ece=%v ect=%v retx=%v sent=%v echo=%v",
				now, id, dir, p.Type, p.Seq, p.Len, p.Ack, p.Sack(), p.Mark, p.CE, p.ECE, p.ECT, p.IsRetx, p.SentAt, p.EchoTS))
		}
	}

	start := func(snd *Sender, rcv *Receiver, f *transport.Flow, fr *stats.FlowRecord) {
		snd.Reset(src, f, c.cfg, fr)
		rcv.Reset(dst, f, c.cfg, fr)
		transport.Open(snd, rcv, rec, nil)
		snd.Write(f.Size)
		snd.Close()
	}

	fa := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: c.sizeA}
	fra := rec.NewFlowRecord(fa)
	snd, rcv := new(Sender), new(Receiver)
	// Half the recycled cases also trade scoreboards through a shared
	// list, the way a grid slot's senders do.
	var boards transport.ByteBoards
	shared := recycle && c.seed%2 == 0
	if shared {
		snd.Board.Share(&boards)
	}
	start(snd, rcv, fa, fra)

	fb := &transport.Flow{ID: 2, Src: 0, Dst: 1, Size: c.sizeB, Start: resetStart}
	frb := rec.NewFlowRecord(fb)
	s.At(resetStart, func() {
		if !snd.Done() || snd.Aborted() != c.abortA || fra.Aborted != c.abortA {
			t.Fatalf("%s: flow A done=%v aborted=%v booked=%v at B's start, want done and aborted=%v",
				c.name, snd.Done(), snd.Aborted(), fra.Aborted, c.abortA)
		}
		// The state the aborting case exists for — backed off, in RTO
		// recovery (a timeout recovered before the one that gave up), an
		// out-of-order range at the receiver, a tail probe spent exactly
		// when TLP is on: Reset must clear all of it.
		if c.abortA && (snd.Backoff() == 0 || fra.Timeouts < 2 || !oooA || probedA != (c.cfg.TLP && !c.cfg.TLT.Enabled)) {
			t.Fatalf("%s: aborted A left backoff=%d after %d timeouts, ooo=%v probed=%v: scenario too gentle",
				c.name, snd.Backoff(), fra.Timeouts, oooA, probedA)
		}
		src.Unregister(1)
		dst.Unregister(1)
		if !recycle {
			snd, rcv = new(Sender), new(Receiver)
		}
		start(snd, rcv, fb, frb)
	})
	s.Run(10 * sim.Second)
	if !frb.Done && !frb.Aborted {
		t.Fatalf("%s (recycle=%v): flow B neither completed nor aborted", c.name, recycle)
	}
	if shared && snd.Board.Cap() != 0 {
		t.Fatalf("%s: a finished sender kept the scoreboard it shares", c.name)
	}
	out := *frb
	out.Flow = nil
	return seen, out
}
