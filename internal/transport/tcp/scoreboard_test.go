package tcp

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// elephantTrace is the SHA-256 of every packet the three hosts of
// TestScoreboardFollowsWindow send and receive, recorded when the
// scoreboard still held a whole flow (PR 14). Compaction and capacity are
// bookkeeping: they must never show on the wire.
const elephantTrace = "40dbeab33980be3a9e663ccd14bd764f4c5850a1113b5e1192d53d2ffb74c3ec"

// TestScoreboardFollowsWindow: three 30 MB DCTCP flows share one marking
// egress port, and each sender's NIC loses one first transmission in 997,
// so every flow keeps a few hundred segments in flight and recovers holes
// by SACK all the way through. The scoreboard has to hold the window, not
// the flow: 30,000 segments pass through a backing array that never needs
// more than a few thousand slots.
func TestScoreboardFollowsWindow(t *testing.T) {
	s, n := starNet(t, 4, fabric.SwitchConfig{ECN: fabric.ECNStep, KEcn: 200_000})
	rec := stats.NewRecorder()
	cfg := DCTCPConfig()
	h := sha256.New()
	for _, host := range n.Hosts {
		id := host.ID()
		host.Trace = func(now sim.Time, dir string, p *packet.Packet) {
			fmt.Fprintf(h, "%d h%d %s %d %d %d %d %d %v %d %v %v %v %v %v\n", now, id, dir,
				p.Flow, p.Type, p.Seq, p.Len, p.Ack, p.Sack(), p.Mark, p.IsRetx, p.SentAt, p.EchoTS, p.CE, p.ECE)
		}
	}
	const size = 30_000_000
	var snds []*Sender
	var rcvs []*Receiver
	for i := 1; i <= 3; i++ {
		n.Hosts[i].NICTx().DropWhen(func(p *packet.Packet) bool {
			return p.Type == packet.Data && !p.IsRetx && p.Seq/int64(cfg.MSS)%997 == 13
		})
		f := &transport.Flow{ID: packet.FlowID(i), Src: packet.NodeID(i), Dst: 0, Size: size}
		snd, rcv := StartFlow(s, n.Hosts[i], n.Hosts[0], f, cfg, rec, nil)
		snds, rcvs = append(snds, snd), append(rcvs, rcv)
	}
	maxCap := 0
	var watch func()
	watch = func() {
		for _, snd := range snds {
			maxCap = max(maxCap, snd.Board.Cap())
		}
		if done, total := rec.CompletedCount(false); done < total {
			s.After(100*sim.Microsecond, watch)
		}
	}
	s.After(0, watch)
	s.Run(10 * sim.Second)

	retx := 0
	for i, snd := range snds {
		if !snd.Done() || rcvs[i].Delivered() != size {
			t.Fatalf("flow %d: done=%v delivered=%d of %d", i+1, snd.Done(), rcvs[i].Delivered(), size)
		}
		retx += rec.Flows[i].RetxPackets
	}
	if retx == 0 {
		t.Fatal("no retransmissions: the scenario never exercised loss recovery on a compacted scoreboard")
	}
	nsegs := size / cfg.MSS
	t.Logf("%d segments per flow, %d retransmissions, scoreboard capacity peaked at %d", nsegs, retx, maxCap)
	if limit := 4096; maxCap > limit {
		t.Fatalf("scoreboard capacity reached %d segments (flow: %d), want at most %d: it is following the flow, not the window", maxCap, nsegs, limit)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != elephantTrace {
		t.Fatalf("wire trace digest %s, want %s: scoreboard bookkeeping changed what the sender transmits", got, elephantTrace)
	}
}

// Boards trade backings through a shared list by size: a growing board
// gives back each one it outgrows, a later flow climbing the same sizes
// allocates nothing, and Trim drops the sizes nobody took.
func TestScoreboardsRecycleBySize(t *testing.T) {
	var b transport.ByteBoards
	var board transport.ByteBoard
	board.Share(&b)
	fill := func(n int64) {
		board.Reset(n, 10, false)
		for seq := int64(0); seq < n; seq++ {
			board.Send(seq, seq+1, false, 0)
		}
	}
	give := func(n int64) {
		fill(n)
		board.Release()
	}
	fill(100)
	if board.Cap() != 128 || board.End(99) != 100 {
		t.Fatalf("100 ranges ended on capacity %d, last ending at %d; want 128 and the ranges kept", board.Cap(), board.End(99))
	}
	board.Release()
	refill := func(n int64) float64 { return testing.AllocsPerRun(3, func() { give(n) }) }
	if allocs := refill(100); allocs != 0 {
		t.Fatalf("a second flow of the same size allocated %v times", allocs)
	}
	b.Trim() // every size was taken since the last Trim: all stay
	if allocs := refill(100); allocs != 0 {
		t.Fatalf("after a Trim that followed a 100-segment flow, the next one allocated %v times", allocs)
	}
	b.Trim()
	give(10)
	b.Trim() // only the smallest was taken
	if allocs := refill(10); allocs != 0 {
		t.Fatalf("after a Trim that followed a 10-segment flow, the next one allocated %v times", allocs)
	}
	// Capacities 32, 64 and 128 were dropped: one run makes them anew.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	give(100)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 3 {
		t.Fatalf("after a Trim that followed a 10-segment flow, a 100-segment flow allocated %d times, want its three larger backings", allocs)
	}
}
