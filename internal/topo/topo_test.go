package topo

import (
	"reflect"
	"slices"
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// capture retains packets past Handle, so it must copy: the host
// recycles the delivered packet once Handle returns.
type capture struct {
	got []packet.Packet
}

func (c *capture) Handle(p *packet.Packet) { c.got = append(c.got, *p) }

func defaultLS(s *sim.Sim) *Network {
	cfg := DefaultLeafSpine(10 * sim.Microsecond)
	return LeafSpine(s, cfg)
}

func TestLeafSpineShape(t *testing.T) {
	s := sim.New()
	n := defaultLS(s)
	if len(n.Hosts) != 96 {
		t.Fatalf("hosts = %d", len(n.Hosts))
	}
	if len(n.Switches) != 16 {
		t.Fatalf("switches = %d, want 12 ToR + 4 spine", len(n.Switches))
	}
	for _, sw := range n.Switches[:12] {
		if sw.NumPorts() != 12 {
			t.Fatalf("ToR ports = %d, want 12", sw.NumPorts())
		}
	}
	for _, sw := range n.Switches[12:] {
		if sw.NumPorts() != 12 {
			t.Fatalf("spine ports = %d, want 12 (one per ToR)", sw.NumPorts())
		}
	}
	// 96 host links + 48 uplinks, both directions.
	if got := len(n.Txs); got != 2*(96+48) {
		t.Fatalf("transmitters = %d, want %d", got, 2*(96+48))
	}
	if n.BaseRTT != 80*sim.Microsecond {
		t.Fatalf("BaseRTT = %v, want 80us", n.BaseRTT)
	}
}

func TestLeafSpineAllPairsReachable(t *testing.T) {
	s := sim.New()
	n := defaultLS(s)
	// Sample src/dst pairs covering intra-rack, inter-rack and every ToR.
	pairs := [][2]int{{0, 1}, {0, 95}, {7, 8}, {40, 41}, {95, 0}, {13, 77}}
	for t2 := 0; t2 < 12; t2++ {
		pairs = append(pairs, [2]int{t2 * 8, (t2*8 + 9) % 96})
	}
	for i, pr := range pairs {
		c := &capture{}
		n.Hosts[pr[1]].Register(packet.FlowID(i+1), c)
		n.Hosts[pr[0]].Send(&packet.Packet{
			Flow: packet.FlowID(i + 1), Dst: packet.NodeID(pr[1]),
			Type: packet.Data, Len: 100,
		})
		s.RunAll()
		if len(c.got) != 1 {
			t.Fatalf("pair %v: delivered %d packets", pr, len(c.got))
		}
	}
}

func TestLeafSpineECMPSpreadsFlows(t *testing.T) {
	s := sim.New()
	n := defaultLS(s)
	// Many flows host0 -> host95: the four spine paths should all carry
	// traffic, and each flow must stay on one path (no reordering).
	c := &capture{}
	for f := 1; f <= 64; f++ {
		n.Hosts[95].Register(packet.FlowID(f), c)
		for k := 0; k < 3; k++ {
			n.Hosts[0].Send(&packet.Packet{
				Flow: packet.FlowID(f), Dst: 95,
				Type: packet.Data, Seq: int64(k), Len: 100,
			})
		}
	}
	s.RunAll()
	if len(c.got) != 64*3 {
		t.Fatalf("delivered %d", len(c.got))
	}
	perFlowSeq := map[packet.FlowID]int64{}
	for _, p := range c.got {
		if p.Seq != perFlowSeq[p.Flow] {
			t.Fatalf("flow %d reordered", p.Flow)
		}
		perFlowSeq[p.Flow]++
	}
	// Spine utilization: count spine switches that forwarded bytes.
	used := 0
	for _, sw := range n.Switches[12:] {
		var bytes int64
		for p := 0; p < sw.NumPorts(); p++ {
			bytes += sw.Tx(p).TxBytes
		}
		if bytes > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("only %d of 4 spines used by 64 flows", used)
	}
}

func TestStar(t *testing.T) {
	s := sim.New()
	n := Star(s, StarConfig{
		Hosts:       9,
		LinkRateBps: 40e9,
		LinkDelay:   2 * sim.Microsecond,
		Switch:      fabric.SwitchConfig{BufferBytes: 1 << 20},
	})
	if len(n.Hosts) != 9 || len(n.Switches) != 1 {
		t.Fatal("star shape wrong")
	}
	c := &capture{}
	n.Hosts[0].Register(1, c)
	for h := 1; h < 9; h++ {
		n.Hosts[h].Send(&packet.Packet{Flow: 1, Dst: 0, Type: packet.Data, Len: 100})
	}
	s.RunAll()
	if len(c.got) != 8 {
		t.Fatalf("delivered %d", len(c.got))
	}
}

func TestDumbbell(t *testing.T) {
	s := sim.New()
	n := Dumbbell(s, DumbbellConfig{
		LeftHosts: 7, RightHosts: 2,
		LinkRateBps: 40e9,
		LinkDelay:   2 * sim.Microsecond,
		Switch:      fabric.SwitchConfig{BufferBytes: 1 << 20},
	})
	if len(n.Hosts) != 9 || len(n.Switches) != 2 {
		t.Fatal("dumbbell shape wrong")
	}
	// Left to right crosses the inter-switch link.
	c := &capture{}
	n.Hosts[8].Register(1, c)
	n.Hosts[0].Send(&packet.Packet{Flow: 1, Dst: 8, Type: packet.Data, Len: 100})
	// Right to left too.
	c2 := &capture{}
	n.Hosts[1].Register(2, c2)
	n.Hosts[7].Send(&packet.Packet{Flow: 2, Dst: 1, Type: packet.Data, Len: 100})
	s.RunAll()
	if len(c.got) != 1 || len(c2.got) != 1 {
		t.Fatalf("cross deliveries: %d, %d", len(c.got), len(c2.got))
	}
}

func TestCountersAggregate(t *testing.T) {
	s := sim.New()
	n := defaultLS(s)
	ctr := n.Counters()
	if ctr.TotalDrops() != 0 || ctr.EnqGreen != 0 {
		t.Fatal("fresh network has non-zero counters")
	}
}

func TestPausedFraction(t *testing.T) {
	s := sim.New()
	n := Star(s, StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 1 << 20},
	})
	n.Txs[0].Pause()
	s.Post(100*sim.Microsecond, func() {})
	s.RunAll()
	n.FinishPausedClocks()
	frac := n.PausedFraction(100 * sim.Microsecond)
	want := 1.0 / float64(len(n.Txs))
	if frac < want*0.99 || frac > want*1.01 {
		t.Fatalf("paused fraction = %f, want %f", frac, want)
	}
}

// TestLeafSpineRerouteStaysInItsCell checks the tables every leaf-spine
// of one shape shares through the blueprint: a reroute on one network
// copies its ToR's table before writing, so it neither reaches a second
// network of the same shape nor the blueprint. The two networks run
// concurrently, as grid cells do, so a write-through is also a data race
// under -race.
//
// Mutation-checked: fails when SetRoute skips the copy.
func TestLeafSpineRerouteStaysInItsCell(t *testing.T) {
	const deadSpine = 1
	cfg := DefaultLeafSpine(10 * sim.Microsecond)
	bp := leafSpineBlueprint(cfg.Spines, cfg.Tors, cfg.HostsPerTor, 1, false)
	wantTbl, wantFlat := cloneTables(bp.torTbl), cloneTables(bp.torFlat)
	rerouted, other := defaultLS(sim.New()), defaultLS(sim.New())

	// 64 flows from ToR 0 to ToR 11, on each network; the result is
	// the bytes each spine carried.
	spineBytes := func(n *Network) []int64 {
		c := &capture{}
		for f := 1; f <= 64; f++ {
			n.Hosts[95].Register(packet.FlowID(f), c)
			n.Hosts[0].Send(&packet.Packet{Flow: packet.FlowID(f), Dst: 95, Type: packet.Data, Len: 100})
		}
		n.Sim.RunAll()
		if len(c.got) != 64 {
			t.Errorf("delivered %d of 64", len(c.got))
		}
		var bytes []int64
		for _, sw := range n.Switches[cfg.Tors:] {
			var b int64
			for p := 0; p < sw.NumPorts(); p++ {
				b += sw.Tx(p).TxBytes
			}
			bytes = append(bytes, b)
		}
		return bytes
	}
	var got [2][]int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		rerouted.SetSwitchFailed(cfg.Tors+deadSpine, true)
		rerouted.Reroute()
		got[0] = spineBytes(rerouted)
	}()
	got[1] = spineBytes(other)
	<-done

	if got[0][deadSpine] != 0 {
		t.Errorf("rerouted network sent %d bytes through its dead spine", got[0][deadSpine])
	}
	for c, b := range got[1] {
		if b == 0 {
			t.Errorf("the other network's spine %d carried nothing (per-spine bytes %v): the reroute reached it", c, got[1])
		}
	}
	if !reflect.DeepEqual(bp.torTbl, wantTbl) || !reflect.DeepEqual(bp.torFlat, wantFlat) {
		t.Error("a reroute wrote through to the blueprint's ToR tables")
	}
}

func cloneTables[E any](tbls [][]E) [][]E {
	out := make([][]E, len(tbls))
	for i, tbl := range tbls {
		out[i] = slices.Clone(tbl)
	}
	return out
}
