package hpcc

import (
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
)

// TestHPCCTLTClockRescuesStalledWindow: collapse HPCC's window via
// hostile INT feedback after losing the tail; the important ACK-clock
// must keep the flow alive without the 4ms static RTO.
func TestHPCCTLTClockRescuesStalledWindow(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 4 << 20, INT: true, ColorThreshold: 200_000},
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(n.BaseRTT + 4*sim.Microsecond)
	cfg.TLT = core.Config{Enabled: true}
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 40_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)

	// Drop a mid-flow span of unimportant packets twice.
	drops := map[int64]int{}
	n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool {
		if p.Type == packet.Data && p.Seq >= 10 && p.Seq < 20 &&
			p.Mark == packet.Unimportant && drops[p.Seq] < 2 {
			drops[p.Seq]++
			return true
		}
		return false
	})
	s.Run(3 * sim.Millisecond) // less than the 4ms RTO
	if !snd.Done() {
		t.Fatal("flow incomplete before the static RTO: clocking failed to rescue")
	}
	if rec.Flows[0].Timeouts != 0 {
		t.Fatalf("timeouts = %d", rec.Flows[0].Timeouts)
	}
	if rec.Flows[0].RetxPackets < 10 {
		t.Fatalf("retransmissions = %d, want the dropped span recovered", rec.Flows[0].RetxPackets)
	}
}

// TestHPCCTLTMarksBurstTail: the last packet of the initial window burst
// carries ImportantData so its echo covers the burst.
func TestHPCCTLTMarksBurstTail(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 4 << 20, INT: true},
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(n.BaseRTT + 4*sim.Microsecond)
	cfg.TLT = core.Config{Enabled: true}
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 200_000}
	var seen []packet.Mark
	n.Hosts[0].Trace = func(now sim.Time, dir string, p *packet.Packet) {
		if dir == "tx" && p.Type == packet.Data {
			seen = append(seen, p.Mark)
		}
	}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(sim.Second)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
	imp := 0
	for _, m := range seen {
		if m == packet.ImportantData || m == packet.ImportantClockData {
			imp++
		}
	}
	if imp == 0 {
		t.Fatal("no important data packets on the wire")
	}
	// One important per RTT, not per packet: far fewer than total.
	if imp*3 > len(seen) {
		t.Fatalf("%d of %d packets important: marking too aggressive", imp, len(seen))
	}
}

// TestHPCCClockBytesBooksRealLength: important ACK-clocking books the
// bytes it actually injects. The message is the initial window (30
// packets on this star) plus a 300-byte tail: the tail leaves on the
// first ACK, unmarked because packet 29 is the important one in flight,
// and is the first unsacked packet when 29's echo arrives with nothing
// left to send — so the one clock transmission duplicates the short last
// packet. The sender used to book a full MSS for it; dcqcn's IRN never
// did. ClockBytes is rendered only by fig17, which runs dctcp, so no
// golden and no benchmark digest moves with this.
func TestHPCCClockBytesBooksRealLength(t *testing.T) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 4 << 20, INT: true},
	})
	rec := stats.NewRecorder()
	cfg := DefaultConfig(n.BaseRTT + 2*sim.Microsecond)
	cfg.TLT = core.Config{Enabled: true}
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 30_300}
	var clocked []int
	n.Hosts[0].Trace = func(now sim.Time, dir string, p *packet.Packet) {
		if dir == "tx" && p.Mark == packet.ImportantClockData {
			clocked = append(clocked, p.Len)
		}
	}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	s.Run(sim.Millisecond)
	if !snd.Done() {
		t.Fatal("flow incomplete")
	}
	if len(clocked) != 1 || clocked[0] != 300 {
		t.Fatalf("clock transmissions carried %v bytes, want one of 300 (the short last packet)", clocked)
	}
	if fr := rec.Flows[0]; fr.ClockSends != 1 || fr.ClockBytes != 300 {
		t.Fatalf("ClockSends = %d ClockBytes = %d, want 1 and 300", fr.ClockSends, fr.ClockBytes)
	}
}
