package app

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport/tcp"
)

func appStar(hosts int) (*sim.Sim, *topo.Network) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts:       hosts,
		LinkRateBps: 40e9,
		LinkDelay:   2 * sim.Microsecond,
		Switch:      fabric.SwitchConfig{BufferBytes: 4 << 20, ECN: fabric.ECNStep, KEcn: 200_000},
	})
	return s, n
}

func TestChannelMessageBoundaries(t *testing.T) {
	s, n := appStar(2)
	rec := stats.NewRecorder()
	ch := NewChannel(s, n.Hosts[0], n.Hosts[1], 1, tcp.DCTCPConfig(), rec)
	var order []string
	ch.SendAB(1000, func() { order = append(order, "m1") })
	ch.SendAB(32*1024, func() { order = append(order, "m2") })
	ch.SendBA(500, func() { order = append(order, "r1") })
	s.RunAll()
	if len(order) != 3 {
		t.Fatalf("delivered %d messages: %v", len(order), order)
	}
	// The two directions are independent; within A->B, m1 precedes m2.
	pos := map[string]int{}
	for i, m := range order {
		pos[m] = i
	}
	if pos["m1"] > pos["m2"] {
		t.Fatalf("A->B messages out of order: %v", order)
	}
}

func TestChannelPipelinedRequests(t *testing.T) {
	// Messages queued back-to-back must each fire exactly once, in order.
	s, n := appStar(2)
	rec := stats.NewRecorder()
	ch := NewChannel(s, n.Hosts[0], n.Hosts[1], 1, tcp.DCTCPConfig(), rec)
	got := 0
	for i := 0; i < 20; i++ {
		i := i
		ch.SendAB(10_000, func() {
			if i != got {
				t.Errorf("message %d fired at position %d", i, got)
			}
			got++
		})
	}
	s.RunAll()
	if got != 20 {
		t.Fatalf("delivered %d messages", got)
	}
}

func TestRequestResponseChain(t *testing.T) {
	// The full client -> web server -> cache -> back chain of Fig. 12.
	s, n := appStar(4)
	rec := stats.NewRecorder()
	cl := NewCacheCluster(s, n.Hosts, tcp.DCTCPConfig(), rec, 1)
	rts := cl.RunSetBurst(4, 0)
	s.RunAll()
	for i, rt := range rts {
		if rt <= 0 {
			t.Fatalf("request %d never completed", i)
		}
		// One 32kB transfer at 40Gbps is ~7us; with the request hops
		// anything beyond a millisecond would indicate a stall.
		if rt > sim.Millisecond {
			t.Fatalf("request %d took %v", i, rt)
		}
	}
}

func TestSetBurstIncastCompletes(t *testing.T) {
	s, n := appStar(10)
	rec := stats.NewRecorder()
	cl := NewCacheCluster(s, n.Hosts, tcp.DCTCPConfig(), rec, 1)
	rts := cl.RunSetBurst(80, 0)
	s.Run(10 * sim.Second)
	done := 0
	for _, rt := range rts {
		if rt > 0 {
			done++
		}
	}
	if done != 80 {
		t.Fatalf("completed %d/80 requests", done)
	}
}

func TestRunMixed(t *testing.T) {
	s, n := appStar(10)
	rec := stats.NewRecorder()
	cl := NewCacheCluster(s, n.Hosts, tcp.DCTCPConfig(), rec, 1)
	res := cl.RunMixed(40, n.Hosts[0], 8_000_000, 0)
	s.Run(10 * sim.Second)
	if !res.BgComplete {
		t.Fatal("background flow incomplete")
	}
	if res.BgGoodput <= 0 {
		t.Fatal("no goodput recorded")
	}
	// 8MB at 40Gbps lower-bounds the FCT at 1.6ms.
	if res.BgFCT < 1600*sim.Microsecond {
		t.Fatalf("bg FCT %v implausibly fast", res.BgFCT)
	}
	for i, rt := range res.FgRTs {
		if rt <= 0 {
			t.Fatalf("fg SET %d incomplete", i)
		}
	}
}

// TestPersistentConnNeverCompletes: a channel's flows are Size-0 streams
// with no end, so however many messages they carry the responder core's
// one completion rule must never book them done.
//
// Mutation-checked: fails when the core's Reset does not start a stream
// with no end completed (testdata/mutants).
func TestPersistentConnNeverCompletes(t *testing.T) {
	s, n := appStar(2)
	rec := stats.NewRecorder()
	ch := NewChannel(s, n.Hosts[0], n.Hosts[1], 1, tcp.DCTCPConfig(), rec)
	delivered := 0
	for i := 0; i < 5; i++ {
		ch.SendAB(8_000, func() { delivered++ })
		ch.SendBA(1_000, func() { delivered++ })
	}
	s.RunAll()
	if delivered != 10 {
		t.Fatalf("delivered %d of 10 messages", delivered)
	}
	for _, fr := range rec.Flows {
		if fr.Done {
			t.Errorf("persistent flow %d booked done at %v", fr.Flow.ID, fr.End)
		}
	}
	if done, total := rec.CompletedCount(false); done != 0 || total != 2 {
		t.Fatalf("recorder counts %d of %d flows completed, want 0 of 2", done, total)
	}
}
