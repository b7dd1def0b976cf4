package transport_test

import (
	"testing"

	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
	"tlt/internal/transport/dcqcn"
	"tlt/internal/transport/hpcc"
	"tlt/internal/transport/tcp"
)

// TestSizeZeroFlowFinishes: a started flow with an empty message ends on
// every family — its record is done, not aborted, and onDone fires once —
// and leaves nothing scheduled. A queue pair sends its one empty packet;
// a tcp stream has nothing to send and its sender books the completion.
// tcp.NewConn's persistent streams, also Size 0, never complete
// (app.TestPersistentConnNeverCompletes).
func TestSizeZeroFlowFinishes(t *testing.T) {
	for _, name := range []string{"tcp", "dctcp", "dcqcn-gbn", "dcqcn-sack", "dcqcn-irn", "hpcc"} {
		s, n := roceStar()
		rec := stats.NewRecorder()
		f := &transport.Flow{ID: 1, Src: 0, Dst: 1}
		var done []*stats.FlowRecord
		onDone := func(r *stats.FlowRecord) { done = append(done, r) }
		switch name {
		case "tcp", "dctcp":
			cfg := tcp.DefaultConfig()
			if name == "dctcp" {
				cfg = tcp.DCTCPConfig()
			}
			tcp.StartFlow(s, n.Hosts[0], n.Hosts[1], f, cfg, rec, onDone)
		case "hpcc":
			hpcc.StartFlow(s, n.Hosts[0], n.Hosts[1], f, hpcc.DefaultConfig(n.BaseRTT+2*sim.Microsecond), rec, onDone)
		default:
			mode := map[string]dcqcn.Mode{"dcqcn-gbn": dcqcn.GBN, "dcqcn-sack": dcqcn.SACK, "dcqcn-irn": dcqcn.IRN}[name]
			dcqcn.StartFlow(s, n.Hosts[0], n.Hosts[1], f, dcqcn.DefaultConfig(mode), rec, onDone)
		}
		s.RunAll()
		if len(rec.Flows) != 1 {
			t.Fatalf("%s: %d flow records, want 1", name, len(rec.Flows))
		}
		r := rec.Flows[0]
		if !r.Done || r.Aborted {
			t.Fatalf("%s: Size-0 flow ended done=%v aborted=%v", name, r.Done, r.Aborted)
		}
		if len(done) != 1 || done[0] != r {
			t.Fatalf("%s: onDone fired %d times", name, len(done))
		}
		if p := s.Pending(); p != 0 {
			t.Fatalf("%s: %d events still pending", name, p)
		}
	}
}
