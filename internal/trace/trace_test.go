package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/tcp"
)

func runTraced(t *testing.T, tr *Tracer) {
	t.Helper()
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 1 << 20},
	})
	tr.AttachAll(n.Hosts)
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 7, Src: 0, Dst: 1, Size: 5_000}
	tcp.StartFlow(s, n.Hosts[0], n.Hosts[1], f, tcp.DefaultConfig(), rec, nil)
	s.RunAll()
	if !rec.Flows[0].Done {
		t.Fatal("flow incomplete")
	}
}

func TestTracerRecordsBothDirections(t *testing.T) {
	tr := New(0)
	runTraced(t, tr)
	events := tr.Events()
	// 5 data packets: each seen as tx at host0 and rx at host1, plus 5
	// ACKs both ways: 20 events.
	if len(events) != 20 {
		t.Fatalf("events = %d, want 20", len(events))
	}
	var tx, rx, data, acks int
	for _, e := range events {
		switch e.Dir {
		case "tx":
			tx++
		case "rx":
			rx++
		}
		switch e.Pkt.Type {
		case packet.Data:
			data++
		case packet.Ack:
			acks++
		}
	}
	if tx != 10 || rx != 10 || data != 10 || acks != 10 {
		t.Fatalf("tx=%d rx=%d data=%d acks=%d", tx, rx, data, acks)
	}
	// Chronological order.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestTracerRing(t *testing.T) {
	tr := New(6)
	runTraced(t, tr)
	events := tr.Events()
	if len(events) != 6 {
		t.Fatalf("ring kept %d events", len(events))
	}
	// The last event must be the final ACK rx at host 0.
	last := events[len(events)-1]
	if last.Pkt.Type != packet.Ack || last.Dir != "rx" || last.Host != 0 {
		t.Fatalf("last event = %+v", last)
	}
}

func TestTracerFlowFilter(t *testing.T) {
	tr := New(0)
	tr.FlowFilter = 999 // no such flow
	runTraced(t, tr)
	if tr.Len() != 0 {
		t.Fatalf("filter leaked %d events", tr.Len())
	}
}

func TestTracerStreamAndFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := New(0).Stream(&buf)
	runTraced(t, tr)
	out := buf.String()
	if !strings.Contains(out, "DATA flow=7 seq=0 len=1000") {
		t.Fatalf("missing data line:\n%s", out)
	}
	if !strings.Contains(out, "ACK flow=7 ack=") {
		t.Fatalf("missing ack line:\n%s", out)
	}
	var dump bytes.Buffer
	tr.Dump(&dump)
	if dump.String() != out {
		t.Fatal("Dump should match streamed output")
	}
}

// runScenario drives a fixed multi-flow incast, optionally attaching tr
// to every host, and returns a deterministic per-flow report string plus
// the network for hook inspection.
func runScenario(t *testing.T, tr *Tracer) (string, *topo.Network) {
	t.Helper()
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 5, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{BufferBytes: 300_000, Alpha: 1},
	})
	if tr != nil {
		tr.AttachAll(n.Hosts)
	}
	rec := stats.NewRecorder()
	for i := 0; i < 4; i++ {
		f := &transport.Flow{
			ID: packet.FlowID(i + 1), Src: packet.NodeID(i + 1), Dst: 0,
			Size: 200_000,
		}
		tcp.StartFlow(s, n.Hosts[i+1], n.Hosts[0], f, tcp.DefaultConfig(), rec, nil)
	}
	s.RunAll()
	var b strings.Builder
	for _, fr := range rec.Flows {
		fmt.Fprintf(&b, "flow=%d done=%v fct=%v sent=%d retx=%d to=%d bytes=%d\n",
			fr.Flow.ID, fr.Done, fr.FCT(), fr.SentPackets, fr.RetxPackets, fr.Timeouts, fr.TotalBytes)
	}
	return b.String(), n
}

// TestUntracedRunIdenticalAndHookFree is the regression test for the
// hot-path tracing contract: a run without a tracer must leave every
// host's Trace hook nil (so receive/send pay only a nil check and no
// trace call can ever happen), and the simulation results must be
// byte-identical with and without tracing attached.
func TestUntracedRunIdenticalAndHookFree(t *testing.T) {
	plain, n := runScenario(t, nil)
	for _, h := range n.Hosts {
		if h.Trace != nil {
			t.Fatalf("host %d has a trace hook in an untraced run", h.ID())
		}
	}
	for _, sw := range n.Switches {
		if sw.Audit != nil {
			t.Fatalf("switch %d has an audit hook in a plain run", sw.ID())
		}
	}

	tr := New(0)
	traced, _ := runScenario(t, tr)
	if traced != plain {
		t.Fatalf("tracing changed the report:\n--- untraced ---\n%s--- traced ---\n%s", plain, traced)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestTracerEventsOutliveRecycling: an event keeps the SACK blocks its
// packet carried when it was recorded, although the packet and its SACK
// extension went back to the pool and carried other blocks since — the
// lines Dump prints at the end are the ones streamed as they happened.
func TestTracerEventsOutliveRecycling(t *testing.T) {
	var streamed, dumped bytes.Buffer
	tr := New(0).Stream(&streamed)
	runScenario(t, tr)
	if !strings.Contains(streamed.String(), " sack=") {
		t.Fatal("the incast produced no SACK blocks; recycling not exercised")
	}
	tr.Dump(&dumped)
	if dumped.String() != streamed.String() {
		t.Fatal("recorded events changed after their packets were recycled")
	}
}
