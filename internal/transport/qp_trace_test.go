package transport_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/dcqcn"
	"tlt/internal/transport/hpcc"
	"tlt/internal/transport/tcp"
)

// roceTransports are the four RoCE variants the paper evaluates, in the
// order every table in this file uses.
var roceTransports = []string{"dcqcn-gbn", "dcqcn-sack", "dcqcn-irn", "hpcc"}

// qpEnds is what a test needs of a started queue pair, whichever
// congestion law drives it.
type qpEnds struct {
	board     *transport.PktBoard
	status    func() transport.FlowStatus
	delivered func() int64
	complete  *func() // the receiver's OnComplete
}

// roceStar builds the two-host star the RoCE tests run on: RED marking
// for DCQCN, INT for HPCC, 1 µs links.
func roceStar() (*sim.Sim, *topo.Network) {
	s := sim.New()
	n := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond,
		Switch: fabric.SwitchConfig{
			BufferBytes: 4_500_000, INT: true,
			ECN: fabric.ECNRed, KMin: 50_000, KMax: 200_000, PMax: 0.01,
		},
	})
	return s, n
}

// roceOpts are the per-cell settings of a RoCE test flow: a 300 µs static
// RTO (IRN's RTO_low 60 µs unless noLow) with the given retry and backoff
// limits.
type roceOpts struct {
	tlt        core.Config
	maxRetries int
	backoff    uint
	noLow      bool
}

// startRoCE starts flow f from host 0 to host 1 on the named transport:
// on a new queue pair, or on one from stock when there is a stock.
func startRoCE(n *topo.Network, name string, o roceOpts, f *transport.Flow, rec *stats.Recorder, stock *qpStock) qpEnds {
	rto := transport.RTOConfig{Fixed: 300 * sim.Microsecond, MaxRetries: o.maxRetries, MaxBackoffShift: o.backoff}
	if name == "hpcc" {
		cfg := hpcc.DefaultConfig(n.BaseRTT + 2*sim.Microsecond)
		cfg.TLT, cfg.RTO = o.tlt, rto
		var snd *hpcc.Sender
		var rcv *hpcc.Receiver
		if stock == nil {
			snd, rcv = hpcc.StartFlow(n.Sim, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
		} else {
			snd, rcv = stock.hpccPair()
			hpcc.StartFlowOn(snd, rcv, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
		}
		return qpEnds{&snd.Board, snd.FlowStatus, rcv.Delivered, &rcv.OnComplete}
	}
	mode := map[string]dcqcn.Mode{"dcqcn-gbn": dcqcn.GBN, "dcqcn-sack": dcqcn.SACK, "dcqcn-irn": dcqcn.IRN}[name]
	cfg := dcqcn.DefaultConfig(mode)
	cfg.TLT, cfg.RTO = o.tlt, rto
	cfg.TLT.PeriodN = 96
	if mode == dcqcn.IRN {
		cfg.RTOLow = 60 * sim.Microsecond
		if o.noLow {
			cfg.RTOLow = 0
		}
	}
	var c *dcqcn.Conn
	if stock == nil {
		c = dcqcn.StartFlow(n.Sim, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	} else {
		c = stock.dcqcnConn()
		dcqcn.StartFlowOn(*c, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil)
	}
	return qpEnds{&c.Sender.Board, c.Sender.FlowStatus, c.Receiver.Delivered, &c.Receiver.OnComplete}
}

// seededLoss is the drop and CE-marking pattern of tcp/reset_test.go: a
// pure function of (seed, flow, direction, seq, how often that seq was
// sent), dropping pct% of packets but no packet more than twice, so
// every flow can finish. Two hosts at one link rate never build a queue,
// so the same draw also plays the marking switch (40% of data carries CE).
func seededLoss(seed int64, pct int) func(dir int64) func(*packet.Packet) bool {
	sent := map[[3]int64]int64{}
	return func(dir int64) func(*packet.Packet) bool {
		return func(p *packet.Packet) bool {
			key := [3]int64{int64(p.Flow), dir, p.Seq + p.Ack}
			nth := sent[key]
			sent[key]++
			h := rand.New(rand.NewSource(seed ^ key[0]<<40 ^ key[1]<<36 ^ key[2]<<4 ^ nth)).Intn(100)
			p.CE = p.ECT && h >= 60
			return nth < 2 && h < pct
		}
	}
}

// traceHash folds every packet either host sends or receives — all
// header fields — into h.
func traceHash(n *topo.Network, h io.Writer) {
	for _, host := range n.Hosts {
		id := host.ID()
		host.Trace = func(now sim.Time, dir string, p *packet.Packet) {
			// prio=0 is the PFC priority the packet no longer carries,
			// printed so the hashes taken before its removal still hold.
			fmt.Fprintf(h, "%v h%d %s flow=%d src=%d dst=%d type=%d mark=%d tc=%d seq=%d len=%d ack=%d sack=%v ect=%v ce=%v ece=%v prio=0 sent=%v echo=%v retx=%v last=%v int=%v\n",
				now, id, dir, p.Flow, p.Src, p.Dst, p.Type, p.Mark, p.TC, p.Seq, p.Len, p.Ack, p.Sack(),
				p.ECT, p.CE, p.ECE, p.SentAt, p.EchoTS, p.IsRetx, p.LastPkt, p.INTHops())
		}
	}
}

// traceSizes mixes one-packet, MSS-aligned and short-last-packet
// messages; the last two exceed HPCC's initial window and IRN's BDP cap.
var traceSizes = []int64{1, 999, 1_000, 3_500, 8_000, 24_300, 64_000, 150_700}

// clockedTailSize is HPCC's initial window on roceStar (30 packets) plus
// a 300-byte tail: the tail leaves on the first ACK, unmarked because
// packet 29 is the important one in flight, and is still the first
// unsacked packet when 29's echo arrives with nothing left to send — so
// important ACK-clocking duplicates a short last packet, loss-free.
const clockedTailSize = 30_300

// traceStart starts flow f from host 0 to host 1 of the star and returns
// its sender's stall snapshot.
type traceStart func(n *topo.Network, f *transport.Flow, rec *stats.Recorder) func() transport.FlowStatus

// roceStart starts the cell's flows on the named RoCE transport, with
// backoff enabled (shift ≤ 2). A blackhole cell's flow gives up after
// MaxRetries = 3, with RTO_low off: an IRN sender whose every packet
// vanishes re-arms RTO_low before its retransmissions leave, so it never
// counts a timeout. With a stock, the flows run on its queue pairs
// instead of new ones.
func roceStart(name string, tlt, blackhole bool, stock *qpStock) traceStart {
	o := roceOpts{tlt: core.Config{Enabled: tlt}, backoff: 2}
	if blackhole {
		o.maxRetries, o.noLow = 3, true
	}
	return func(n *topo.Network, f *transport.Flow, rec *stats.Recorder) func() transport.FlowStatus {
		return startRoCE(n, name, o, f, rec, stock).status
	}
}

// runTraceCase runs one cell and returns SHA-256 over its wire trace and
// stall snapshots, and its final flow records. A blackhole cell drops every
// data packet, so its one flow aborts. Seed 0 is the loss-free cell: one
// flow of clockedTailSize. Any other cell runs four flows concurrently —
// three seed-chosen sizes and one beyond the window — through seeded 12%
// loss.
func runTraceCase(t *testing.T, cell string, seed int64, blackhole bool, start traceStart) ([]byte, []stats.FlowRecord) {
	t.Helper()
	s, n := roceStar()
	rec := stats.NewRecorder()
	sum := sha256.New()
	traceHash(n, sum)
	var status []func() transport.FlowStatus
	// Stall snapshots are part of the trace: every sender's FlowStatus
	// line, every 50 µs through the first 2 ms.
	for at := 25 * sim.Microsecond; at < 2*sim.Millisecond; at += 50 * sim.Microsecond {
		s.At(at, func() {
			for _, st := range status {
				fmt.Fprintln(sum, st())
			}
		})
	}
	if blackhole {
		n.Hosts[0].NICTx().DropWhen(func(p *packet.Packet) bool { return p.Type == packet.Data })
		status = append(status, start(n, &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 24_300}, rec))
	} else if seed == 0 {
		status = append(status, start(n, &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: clockedTailSize}, rec))
	} else {
		loss := seededLoss(seed, 12)
		n.Hosts[0].NICTx().DropWhen(loss(0))
		n.Hosts[1].NICTx().DropWhen(loss(1))
		rng := rand.New(rand.NewSource(seed))
		for id := 1; id <= 4; id++ {
			size := traceSizes[rng.Intn(len(traceSizes))]
			if id == 4 {
				size = traceSizes[6+seed%2]
			}
			status = append(status, start(n, &transport.Flow{ID: packet.FlowID(id), Src: 0, Dst: 1, Size: size,
				Start: sim.Time(rng.Intn(40)) * sim.Microsecond}, rec))
		}
	}
	s.Run(sim.Second)
	var out []stats.FlowRecord
	for _, fr := range rec.Flows {
		if fr.Done == blackhole || fr.Aborted != blackhole {
			t.Fatalf("%s: flow %d done=%v aborted=%v", cell, fr.Flow.ID, fr.Done, fr.Aborted)
		}
		r := *fr
		r.Flow = nil
		out = append(out, r)
	}
	return sum.Sum(nil), out
}

// hashWithRecords extends a wire-trace digest with the flow records.
func hashWithRecords(trace []byte, recs []stats.FlowRecord) string {
	h := sha256.New()
	h.Write(trace)
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRoCEWireTraceMatchesParent pins the RoCE family's observable
// behaviour to what the two hand-copied senders produced at 09abe29,
// before they were folded into one reliability core: every packet header
// both hosts saw, in order, periodic FlowStatus lines and every final
// FlowRecord, for
// {dcqcn-gbn, dcqcn-sack, dcqcn-irn, hpcc} × {TLT off, on} × 3 seeds of
// lossy, CE-marked traffic, plus one loss-free flow and one black-holed
// abort per transport.
//
// The one intended difference: important ACK-clocking books the clocked
// packet's real length in ClockBytes for hpcc too (the parent booked a
// full MSS even for a short last packet; dcqcn never did). The hpcc
// cells are therefore compared with ClockBytes re-booked the parent's
// way (ClockSends × MSS), and at least one of them must actually differ.
func TestRoCEWireTraceMatchesParent(t *testing.T) {
	checkParentTraces(t, roceTransports, func(string, string, int64) *qpStock { return nil })
}

// checkParentTraces runs the 8 cells of each of the named transports, in
// roceTransports order, each on the queue pairs stock returns for it
// (nil: new ones), against the committed hashes.
func checkParentTraces(t *testing.T, names []string, stock func(cell, name string, seed int64) *qpStock) {
	rebooked := 0
	reached := map[string]int{} // recovery paths the case table went through
	check := func(cell, name string, tlt bool, seed int64, blackhole bool) {
		trace, recs := runTraceCase(t, cell, seed, blackhole, roceStart(name, tlt, blackhole, stock(cell, name, seed)))
		for i := range recs {
			r := &recs[i]
			reached[name+" timeouts"] += r.Timeouts
			reached[name+" fastrecov"] += r.FastRecov
			reached[name+" lowfires"] += r.RTOLowFires
			reached[name+" clocks"] += r.ClockSends
			if parent := int64(r.ClockSends) * transport.MSS; name == "hpcc" && r.ClockBytes != parent {
				r.ClockBytes = parent
				rebooked++
			}
		}
		if got, want := hashWithRecords(trace, recs), parentTraceHashes[cell]; got != want {
			t.Errorf("%s: wire trace + records hash %s, parent's %s", cell, got, want)
		}
	}
	for _, name := range names {
		for _, tlt := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				check(fmt.Sprintf("%s tlt=%v seed=%d", name, tlt, seed), name, tlt, seed, false)
			}
		}
		check(name+" tlt=true loss-free", name, true, 0, false)
		check(name+" tlt=true blackhole", name, true, 0, true)
	}
	if rebooked == 0 && slices.Contains(names, "hpcc") {
		t.Error("no hpcc cell clocked a short last packet: the ClockBytes difference is not exercised")
	}
	for _, path := range []string{
		"dcqcn-gbn timeouts", "dcqcn-sack timeouts", "dcqcn-irn timeouts", "hpcc timeouts",
		"dcqcn-gbn fastrecov", "dcqcn-sack fastrecov", "dcqcn-irn fastrecov",
		"dcqcn-irn lowfires", "dcqcn-irn clocks", "hpcc clocks",
	} {
		if reached[path] == 0 && slices.Contains(names, strings.Fields(path)[0]) {
			t.Errorf("case table too gentle: no cell reached %q", path)
		}
	}
	t.Logf("reached: %v, hpcc records re-booked: %d", reached, rebooked)
}

// parentTraceHashes were taken at 09abe29 by running this test there.
var parentTraceHashes = map[string]string{
	"dcqcn-gbn tlt=false seed=1":    "6f231187e72102cb7e50fb218a65543febd5ff0ec06a8af26bea332fede99a0d",
	"dcqcn-gbn tlt=false seed=2":    "0a61d46fee8486cfe22c3725f436ee138c0d50f9c723c00875a37c51e7840284",
	"dcqcn-gbn tlt=false seed=3":    "278a8c9349b6794a20e81f9e9e5018fcd1bd53fb4b7574a40a87a38fba12b1ab",
	"dcqcn-gbn tlt=true seed=1":     "99d8369c0df526eb855f5885f4c4aa623440f31a866488531654c8f79bffc6bd",
	"dcqcn-gbn tlt=true seed=2":     "e73f98881261f896b1fd2d5682b6e5269ed0419460d96b05c2ac940e71d69e2d",
	"dcqcn-gbn tlt=true seed=3":     "f816197d1e26fbd29c2e0d7a588d43d86756ce760b7ab57b36076578d82d161d",
	"dcqcn-gbn tlt=true loss-free":  "398945773270cdaedb933ec513dd54d58736d78f3c88300f8a4cdd17cb23bbd4",
	"dcqcn-gbn tlt=true blackhole":  "4a4ff0128f4fb0913f07b9348d03055663e5ec51b632b6156ee91ec5c741e5f2",
	"dcqcn-sack tlt=false seed=1":   "b6d98a65e6813d2e595697923e393836702cfb2ef9989185b52c72c95acd5239",
	"dcqcn-sack tlt=false seed=2":   "d52a4f261f1b745edc7c32bc4440415d8dae034fb257c4797e3407c0f582659c",
	"dcqcn-sack tlt=false seed=3":   "725916c581ee6dd077fd76ee6137af2c44ae840c3a2493959428cb6bd3850425",
	"dcqcn-sack tlt=true seed=1":    "b2d3e16f7c8d5a2029c2c162908a13602c7ab27a314e4df12b793c813f92a4c5",
	"dcqcn-sack tlt=true seed=2":    "edda4a69fffc5a8f6c9ee9d6a937ed6d7f579e4ccdcaa943c7c94e65e23456d7",
	"dcqcn-sack tlt=true seed=3":    "2ad6167b56546b6048317f801a4b021bb3499072a564d2316899777cc4d43589",
	"dcqcn-sack tlt=true loss-free": "3d96d3590ffc7a466696ef340ebfeec02eda31ad2f828570272f535c4684a4d2",
	"dcqcn-sack tlt=true blackhole": "4a4ff0128f4fb0913f07b9348d03055663e5ec51b632b6156ee91ec5c741e5f2",
	"dcqcn-irn tlt=false seed=1":    "1a2ee1ac3750d0809fcea3b31392c7e7a2f553309f4c86475cf04c6a1bebe444",
	"dcqcn-irn tlt=false seed=2":    "d52a4f261f1b745edc7c32bc4440415d8dae034fb257c4797e3407c0f582659c",
	"dcqcn-irn tlt=false seed=3":    "7301472decdae89f191de55ca6881d0cbbfc26407daf2094342d6d1a27e6802f",
	"dcqcn-irn tlt=true seed=1":     "bc8b3a96443895afccaa8399ecff3e78368fe9e13a53561470e5a7b0f5d1ddd8",
	"dcqcn-irn tlt=true seed=2":     "4bf41fc4afa42ca33c608a4b44c401e66d06e08849166eac279eb3281afb9144",
	"dcqcn-irn tlt=true seed=3":     "f22aef6ddbbf0982106980c667d9b591ffdfb6c730ce56559c42a5f40fb8d75d",
	"dcqcn-irn tlt=true loss-free":  "292ecc9b32c8919bde0cbb21bff336f01eede1a3f6f855c4ffcb5ae49f6e6ec1",
	"dcqcn-irn tlt=true blackhole":  "7ed1ee4a09f4d156d650533e9903438acbd24a5983023a0a7a226f6afc25325e",
	"hpcc tlt=false seed=1":         "08a6ea4d12d7b869ce65491f913a6151a60412b1739185353c15d3a3bee50ab7",
	"hpcc tlt=false seed=2":         "b6a628d207aa0108b69ec8271d01ffa985f1e4876ea423000dc05705e69703b0",
	"hpcc tlt=false seed=3":         "fcd8a0d078167bbe3701389a03ad1cc642e5392a627d5699d9fba580fb95d079",
	"hpcc tlt=true seed=1":          "878bd3a696a51d6cc77c812b1402bcee353823db242f5ed5d26f29d6bf2bc373",
	"hpcc tlt=true seed=2":          "c0c95c88d9fc23d3adda00b04a57ec7b3c2bb7bdf46adcc0dff925d2e804215b",
	"hpcc tlt=true seed=3":          "a9422d6f20a5983ef92d39e1b2e83abaa3c762c6c3a82b03c6e69642f7180bef",
	"hpcc tlt=true loss-free":       "7ff15264ebe31ca704b63a84ad0d9702168e9dff9b91579fcbdf88d06f6f6f4e",
	"hpcc tlt=true blackhole":       "0efe43dbc27149c30ccd24761af9dea0d2a424eef6f8b70918481ab8cf425334",
}

// tcpStart starts the cell's flows on law ("tcp" or "dctcp") with
// variant "base", "tlp", "tlt" or one of Fig. 17's clock ablations
// "tlt-1byte" and "tlt-fullmtu", a 200 µs RTOmin and, for a blackhole
// cell, MaxRetries = 3.
func tcpStart(law, variant string, blackhole bool) traceStart {
	cfg := tcp.DefaultConfig()
	if law == "dctcp" {
		cfg = tcp.DCTCPConfig()
	}
	switch variant {
	case "tlp":
		cfg.TLP = true
	case "tlt":
		cfg.TLT = core.Config{Enabled: true}
	case "tlt-1byte":
		cfg.TLT = core.Config{Enabled: true, Clock: core.ClockOneByte}
	case "tlt-fullmtu":
		cfg.TLT = core.Config{Enabled: true, Clock: core.ClockFullMTU}
	}
	cfg.RTO.Min = 200 * sim.Microsecond
	if blackhole {
		cfg.RTO.MaxRetries = 3
	}
	return func(n *topo.Network, f *transport.Flow, rec *stats.Recorder) func() transport.FlowStatus {
		return tcp.StartFlow(n.Sim, n.Hosts[0], n.Hosts[1], f, cfg, rec, nil).Sender.FlowStatus
	}
}

// TestTCPWireTraceMatchesParent is the RoCE harness's tcp leg: the same
// hash over every header both hosts saw — SACK blocks and INT stamps
// included — stall snapshots and flow records, for {tcp, dctcp} × {base,
// TLP, TLT} × 3 seeds of seeded 12% loss and one black-holed abort, pinned
// to what 7a81ca5 produced before packet.Packet was split into a header
// and extensions. Fig. 17's two clock ablations (dctcp, 3 seeds each) and
// one dctcp+TLT cell whose hash also covers every delivery sample (Fig.
// 16) are pinned to 494e097, the last tree with a scoreboard of tcp's own.
func TestTCPWireTraceMatchesParent(t *testing.T) {
	reached := map[string]int{}
	check := func(cell string, seed int64, blackhole bool, start traceStart) {
		var samples *stats.Reservoir
		if strings.HasSuffix(cell, " delivery") {
			start = withDeliverySamples(start, &samples)
		}
		trace, recs := runTraceCase(t, cell, seed, blackhole, start)
		for _, r := range recs {
			reached["timeouts"] += r.Timeouts
			reached["fastrecov"] += r.FastRecov
			reached["clocks"] += r.ClockSends
			if strings.Contains(cell, "-1byte") {
				reached["1-byte clocks"] += r.ClockSends
			}
			if strings.Contains(cell, "-fullmtu") {
				reached["full-MTU clocks"] += r.ClockSends
			}
		}
		if samples != nil {
			reached["delivery samples"] += int(samples.Seen())
			trace = fmt.Appendf(trace, "%v", samples.Samples())
		}
		if got, want := hashWithRecords(trace, recs), parentTCPTraceHashes[cell]; got != want {
			t.Errorf("%s: wire trace + records hash %s, parent's %s", cell, got, want)
		}
	}
	for _, law := range []string{"tcp", "dctcp"} {
		for _, variant := range []string{"base", "tlp", "tlt"} {
			for seed := int64(1); seed <= 3; seed++ {
				check(fmt.Sprintf("%s+%s seed=%d", law, variant, seed), seed, false, tcpStart(law, variant, false))
			}
		}
	}
	check("tcp+base blackhole", 0, true, tcpStart("tcp", "base", true))
	for _, variant := range []string{"tlt-1byte", "tlt-fullmtu"} {
		for seed := int64(1); seed <= 3; seed++ {
			check(fmt.Sprintf("dctcp+%s seed=%d", variant, seed), seed, false, tcpStart("dctcp", variant, false))
		}
	}
	check("dctcp+tlt seed=1 delivery", 1, false, tcpStart("dctcp", "tlt", false))
	for _, path := range []string{"timeouts", "fastrecov", "clocks", "1-byte clocks", "full-MTU clocks", "delivery samples"} {
		if reached[path] == 0 {
			t.Errorf("case table too gentle: no cell reached %q", path)
		}
	}
}

// withDeliverySamples wraps start so that the cell's recorder collects
// delivery samples — all of them: the reservoir never fills — into *to.
func withDeliverySamples(start traceStart, to **stats.Reservoir) traceStart {
	return func(n *topo.Network, f *transport.Flow, rec *stats.Recorder) func() transport.FlowStatus {
		if rec.DeliverySamples == nil {
			rec.DeliverySamples = stats.NewReservoir(1<<20, 1)
			*to = rec.DeliverySamples
		}
		return start(n, f, rec)
	}
}

// parentTCPTraceHashes were taken at 7a81ca5 by running this test there;
// the clock-ablation and delivery cells at 494e097.
var parentTCPTraceHashes = map[string]string{
	"tcp+base seed=1":           "5c5542f439521c61077b36e5724b8cc5903eeb17a11079a2d1fe5d9893ce7324",
	"tcp+base seed=2":           "511ee8bed13bfd67f844e9ed70c72fc4ee03fa5aea79571a47c5ed2762e0e0c6",
	"tcp+base seed=3":           "e636acb925bede063ac1cadca98a67dfdf54fa8920cd577195c8d5b7c27d6caa",
	"tcp+tlp seed=1":            "590d80bec30ff1411a2b115ad7dfdfbf2c1769abc8ca27b360c2d074c6a35719",
	"tcp+tlp seed=2":            "66ae5b50821fcde0348243877a7464fe1e4aef7e7eff40a24f0c1204720e8f8c",
	"tcp+tlp seed=3":            "f41dc1a5e32714f86644789d8be6247a8341d5e5248196cf92d5a98673d74628",
	"tcp+tlt seed=1":            "95b623648711a31d1d5c4c3daa691ab8f635e8eb0efef8abbdc148765e0779f2",
	"tcp+tlt seed=2":            "779d0247266414e966cd7920daf1f9de28b85202297e49ff68fdf49a7c7e0467",
	"tcp+tlt seed=3":            "46431c54f2ff367698015a954c14e29adc3e7c54fd8b7b4ec3453b1902aeef92",
	"dctcp+base seed=1":         "12a0c4d3e4a9cf55c728edd644788ac1d896f61a0732e47026d73bf71558f430",
	"dctcp+base seed=2":         "b0d992f72d8796480c949f5faa96982ffd71774f437252bf8557b4c1bd89f30b",
	"dctcp+base seed=3":         "e7280bfef2ddf1eb298eab067d51d66c38ee406b7e5fc759758f15441ed0c10e",
	"dctcp+tlp seed=1":          "3dcf9b8f52f2d87f57bee5e80f6bac14100c074673c6484e278da9f8081af10c",
	"dctcp+tlp seed=2":          "c21d889112dac13a40c1fa72483399f7f5680e7c0924f1c111d58056df826182",
	"dctcp+tlp seed=3":          "5a7ea3a67aca14d0aa635cdbd4e14070db67d5927bd5d9ed6d4f5454981838f8",
	"dctcp+tlt seed=1":          "ae7b6afcc7b903f818411198b390dd997661cc24da6cb827cdc4f94be3981e53",
	"dctcp+tlt seed=2":          "1b266897f6ba8b5103254427568dceba96e82ee47f0f800aec8ac443640f8203",
	"dctcp+tlt seed=3":          "8d575ff73c3d3b606d3f88e75a66ace4500221a0fe1fddb64ab4224a87315d8c",
	"tcp+base blackhole":        "d1e0b1d34941f525034d162c2f11c87d2e7ff489621d28ee47d135abb5dcbad0",
	"dctcp+tlt-1byte seed=1":    "acfa4eabb3bef4ebecb89e8ffdaf5006799e81ee77d4f1ef7e3e7fc5f646622d",
	"dctcp+tlt-1byte seed=2":    "db355adee0f4d05b5d97045634e752f813e483cc66ff255b03ba7e6e7bfc651f",
	"dctcp+tlt-1byte seed=3":    "8d575ff73c3d3b606d3f88e75a66ace4500221a0fe1fddb64ab4224a87315d8c",
	"dctcp+tlt-fullmtu seed=1":  "4203c433f1ac0bde404ffdf7214ced19868dade98895f4b0813946881146b73a",
	"dctcp+tlt-fullmtu seed=2":  "b9ff596a00301a5d420136e32a7e28f323cc5ee34127269b70f9a2126b2f6ec1",
	"dctcp+tlt-fullmtu seed=3":  "8d575ff73c3d3b606d3f88e75a66ace4500221a0fe1fddb64ab4224a87315d8c",
	"dctcp+tlt seed=1 delivery": "fce24414e9e4810425b0ac5e9df072ebde75d95f9bc7f4f3890d787b4ffc084a",
}
