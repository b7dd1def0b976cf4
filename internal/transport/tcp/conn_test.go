package tcp

import (
	"testing"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

func TestStartFlowLifecycle(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10_000, Start: 5 * sim.Microsecond}
	fired := 0
	var doneAt sim.Time
	_, rcv := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, func(fr *stats.FlowRecord) {
		fired++
		doneAt = fr.End
	})
	// Nothing moves before the arrival time.
	s.Run(4 * sim.Microsecond)
	if rcv.Delivered() != 0 {
		t.Fatal("data moved before flow start")
	}
	s.Run(sim.Second)
	if fired != 1 {
		t.Fatalf("onDone fired %d times", fired)
	}
	fr := rec.Flows[0]
	if !fr.Done || fr.End != doneAt {
		t.Fatal("record inconsistent with callback")
	}
	if fr.FCT() <= 0 || fr.End <= f.Start {
		t.Fatalf("FCT bookkeeping wrong: start=%v end=%v", f.Start, fr.End)
	}
	// FCT is stamped at the receiver, which by then holds all bytes.
	if rcv.Delivered() != f.Size {
		t.Fatal("completion before full delivery")
	}
	// Receive-side bytes are the RoCE responders' to book: a tcp flow's
	// important share counts what its sender sent.
	if fr.RxTotalBytes != 0 || fr.RxImpPackets != 0 || fr.RxImpBytes != 0 {
		t.Fatalf("tcp receiver booked %d rx bytes, %d important packets", fr.RxTotalBytes, fr.RxImpPackets)
	}
}

func TestFCTIsReceiverSide(t *testing.T) {
	// Drop the final ACK forever: the sender keeps retransmitting, but
	// the FCT must already be stamped when the receiver has the data.
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	f := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 5_000}
	snd, _ := StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, nil)
	// Kill all ACKs from the receiver after the 3rd.
	acks := 0
	n.Hosts[1].NICTx().DropWhen(func(p *packet.Packet) bool {
		if p.Type == packet.Ack {
			acks++
			return acks > 3
		}
		return false
	})
	s.Run(20 * sim.Millisecond)
	if !rec.Flows[0].Done {
		t.Fatal("receiver-side completion should not need the last ACK delivered")
	}
	if snd.Done() {
		t.Fatal("sender cannot be done without ACKs")
	}
	if fct := rec.Flows[0].FCT(); fct > sim.Millisecond {
		t.Fatalf("receiver-side FCT %v polluted by ACK loss", fct)
	}
}

func TestManyConcurrentConnsOneHostPair(t *testing.T) {
	s, n := starNet(t, 2, fabric.SwitchConfig{})
	rec := stats.NewRecorder()
	const flows = 50
	for i := 0; i < flows; i++ {
		f := &transport.Flow{ID: packet.FlowID(i + 1), Src: 0, Dst: 1, Size: 20_000}
		StartFlow(s, n.Hosts[0], n.Hosts[1], f, DefaultConfig(), rec, nil)
	}
	s.Run(sim.Second)
	if d, tot := rec.CompletedCount(false); d != tot || tot != flows {
		t.Fatalf("%d/%d complete", d, tot)
	}
	// Flow demux kept streams separate: total delivered equals the sum.
	var bytes int64
	for _, fr := range rec.Flows {
		bytes += fr.Flow.Size
	}
	if bytes != flows*20_000 {
		t.Fatalf("accounting wrong: %d", bytes)
	}
}
