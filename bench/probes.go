package main

import (
	"fmt"
	"runtime"
	"time"

	"tlt/internal/app"
	"tlt/internal/fabric"
	_ "tlt/internal/fabric/mmu" // registers the bshare and bfc policies the mmu probes name
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/dcqcn"
	"tlt/internal/transport/hpcc"
	"tlt/internal/transport/tcp"
	"tlt/internal/workload"
)

// A probe times calls into one layer's public functions in isolation.
// It owns its loop and asserts its own postcondition after every batch,
// so it cannot time a no-op.

// probeSide accumulates what a probe's operations cost the layers below
// it, so the ledger can net those out.
type probeSide struct {
	Events   uint64 // sim events executed
	Enqueues uint64 // switch enqueues
	DataPkts uint64 // data packets sent
}

// batchFn runs about n operations and returns how many it ran.
type batchFn func(n int) (ops int, err error)

type probeDef struct {
	Name string
	// PerOp converts ns per operation into the metric's unit (0 → 1).
	PerOp float64
	Prep  func(side *probeSide) batchFn
}

// probeResult is the median over the timed loops.
type probeResult struct {
	Value       float64 // in the metric's unit
	NsPerOp     float64
	EventsPerOp float64
	EnqPerOp    float64
	DataPerOp   float64
}

const probeLoops = 5

// runProbe calibrates the batch size to loopDur, then times probeLoops
// batches and reports the median.
func runProbe(p probeDef, loopDur time.Duration) (probeResult, error) {
	var side probeSide
	batch := p.Prep(&side)
	timed := func(n int) (time.Duration, int, error) {
		start := time.Now()
		ops, err := batch(n)
		return time.Since(start), ops, err
	}
	n := 64
	for {
		d, _, err := timed(n)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		if d >= loopDur/8 || n >= 1<<26 {
			n = int(float64(n)*float64(loopDur)/float64(d+1)) + 1
			break
		}
		n *= 2
	}
	side = probeSide{}
	var per []float64
	totalOps := 0
	for i := 0; i < probeLoops; i++ {
		d, ops, err := timed(n)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		if ops <= 0 {
			return probeResult{}, fmt.Errorf("%s: batch ran no operations", p.Name)
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops))
		totalOps += ops
	}
	ns := summarize(per).Median
	scale := p.PerOp
	if scale == 0 {
		scale = 1
	}
	return probeResult{
		Value:       ns * scale,
		NsPerOp:     ns,
		EventsPerOp: float64(side.Events) / float64(totalOps),
		EnqPerOp:    float64(side.Enqueues) / float64(totalOps),
		DataPerOp:   float64(side.DataPkts) / float64(totalOps),
	}, nil
}

type counter struct{ n int }

func (c *counter) Handle(*packet.Packet) { c.n++ }

// Typed event kinds the sim probes fire through, registered once (in
// init, because the handlers re-post their own kind).
var kindCount, kindLink, kindPDES sim.EventKind

func init() {
	kindCount = sim.NewKind(func(tgt, _ any) { tgt.(*counter).n++ })
	kindLink = sim.NewKind(func(tgt, _ any) { tgt.(*linkLoad).fire() })
	kindPDES = sim.NewKind(func(tgt, _ any) { tgt.(*pdesNode).fire() })
}

// linkLoad keeps a constant population of pending events whose offsets
// are the ones the fabric generates: 80 ns and 1200 ns serialization,
// 1 µs and 10 µs link delay. They cross wheel levels.
type linkLoad struct {
	s      *sim.Sim
	id     uint32
	i      int
	fired  int
	target int
}

var linkOffsets = [4]sim.Time{80, 1000, 1200, 10000}

func (l *linkLoad) fire() {
	l.fired++
	if l.fired >= l.target {
		l.s.Stop()
	}
	l.i++
	l.s.PostKind(l.s.Now()+linkOffsets[l.i&3], kindLink, l.id, nil)
}

// pdesNode bounces typed hand-offs to its peer shard, each arriving one
// lookahead later.
type pdesNode struct {
	g       *sim.Group
	s       *sim.Sim
	me      int
	peer    int
	peerTgt uint32
	seq     uint64
	fired   int
	_       [64]byte // keep the two shards' counters on separate cache lines
}

const (
	pdesLookahead = sim.Microsecond
	pdesInFlight  = 32
)

func (nd *pdesNode) fire() {
	nd.fired++
	nd.send(nd.s.Now() + pdesLookahead)
}

func (nd *pdesNode) send(at sim.Time) {
	nd.seq++
	nd.g.SendKind(nd.me, nd.peer, at, uint64(nd.me)<<48|nd.seq, kindPDES, nd.peerTgt, nil)
}

func probeSimNear(*probeSide) batchFn {
	s := sim.New()
	c := &counter{}
	id := s.RegisterTarget(c)
	lcg := uint32(1)
	return func(n int) (int, error) {
		start := c.n
		for done := 0; done < n; {
			m := min(4096, n-done)
			now := s.Now()
			for i := 0; i < m; i++ {
				lcg = lcg*1664525 + 1013904223
				s.PostKind(now+sim.Time(lcg>>23), kindCount, id, nil) // now+[0,512) ns
			}
			s.Run(now + 512)
			done += m
		}
		if c.n-start != n || s.Pending() != 0 {
			return 0, fmt.Errorf("posted %d events, %d fired, %d still pending", n, c.n-start, s.Pending())
		}
		return n, nil
	}
}

func probeSimLink(*probeSide) batchFn {
	const pending = 4096
	s := sim.New()
	l := &linkLoad{s: s}
	l.id = s.RegisterTarget(l)
	for i := 0; i < pending; i++ {
		s.PostKind(sim.Time(i*3), kindLink, l.id, nil)
	}
	return func(n int) (int, error) {
		start := l.fired
		l.target = start + n
		s.RunAll()
		if l.fired-start != n || s.Pending() != pending {
			return 0, fmt.Errorf("wanted %d pops with %d pending, got %d with %d", n, pending, l.fired-start, s.Pending())
		}
		return n, nil
	}
}

func probeSimTimer(*probeSide) batchFn {
	s := sim.New()
	fired := 0
	onFire := func() { fired++ }
	nop := func() {}
	t := s.At(4*sim.Millisecond, onFire)
	return func(n int) (int, error) {
		missed := 0
		for i := 0; i < n; i++ {
			if !t.Stop() {
				missed++
			}
			t = s.At(s.Now()+4*sim.Millisecond, onFire)
			if i&63 == 63 { // let the clock move, as ACK arrivals would
				s.Post(s.Now()+sim.Microsecond, nop)
				s.Run(s.Now() + sim.Microsecond)
			}
		}
		if missed != 0 || fired != 0 || s.Pending() != 1 {
			return 0, fmt.Errorf("%d stops missed, %d timers fired, %d pending", missed, fired, s.Pending())
		}
		return n, nil
	}
}

func probeSimPDES(*probeSide) batchFn {
	g := sim.NewGroup(2, pdesLookahead)
	g.SetWorkers(2)
	nodes := [2]*pdesNode{}
	for i := range nodes {
		nodes[i] = &pdesNode{g: g, s: g.Shard(i), me: i, peer: 1 - i}
	}
	for i, nd := range nodes {
		nd.peerTgt = g.Shard(1 - i).RegisterTarget(nodes[1-i])
	}
	for _, nd := range nodes {
		for k := 0; k < pdesInFlight; k++ {
			nd.send(pdesLookahead)
		}
	}
	end := sim.Time(0)
	return func(n int) (int, error) {
		start := nodes[0].fired + nodes[1].fired
		windows := n/(2*pdesInFlight) + 1
		end += sim.Time(windows) * pdesLookahead
		g.Run(end)
		ops := nodes[0].fired + nodes[1].fired - start
		if want := 2 * pdesInFlight * windows; ops != want {
			return 0, fmt.Errorf("%d windows delivered %d hand-offs, want %d", windows, ops, want)
		}
		return ops, nil
	}
}

func dctcpSwitch() fabric.SwitchConfig {
	return fabric.SwitchConfig{BufferBytes: 4_500_000, Alpha: 1, ECN: fabric.ECNStep, KEcn: 200_000}
}

func star(s *sim.Sim, sc fabric.SwitchConfig) *topo.Network {
	return topo.Star(s, topo.StarConfig{Hosts: 2, LinkRateBps: 40e9, LinkDelay: sim.Microsecond, Switch: sc})
}

func enqueues(net *topo.Network) uint64 {
	c := net.Counters()
	return uint64(c.EnqGreen + c.EnqRed)
}

func poolLive(p *packet.Pool) int64 { return int64(p.News+p.Reuses) - int64(p.Puts) }

// probeHop sends pool-recycled packets host → switch → host through the
// event loop. colored alternates red and green marks (TLT traffic).
func probeHop(sc fabric.SwitchConfig, typ packet.Type, payload int, colored bool) func(*probeSide) batchFn {
	return func(side *probeSide) batchFn {
		s := sim.New()
		net := star(s, sc)
		sink := &counter{}
		net.Hosts[1].Register(1, sink)
		src := net.Hosts[0]
		return func(n int) (int, error) {
			got, ev, enq := sink.n, s.Processed, enqueues(net)
			for done := 0; done < n; {
				m := min(256, n-done)
				for i := 0; i < m; i++ {
					p := src.NewPacket()
					p.Flow, p.Dst, p.Type, p.Len = 1, 1, typ, payload
					p.Mark = packet.ControlImportant
					if typ == packet.Data {
						p.Mark = packet.Unimportant
						if colored && i&1 == 1 {
							p.Mark = packet.ImportantData
						}
					}
					src.Send(p)
				}
				s.RunAll()
				done += m
			}
			side.Events += s.Processed - ev
			side.Enqueues += enqueues(net) - enq
			if sink.n-got != n || poolLive(net.Pool) != 0 {
				return 0, fmt.Errorf("sent %d packets, %d reached the sink, %d not recycled", n, sink.n-got, poolLive(net.Pool))
			}
			return n, nil
		}
	}
}

func pfcSwitch() fabric.SwitchConfig {
	sc := dctcpSwitch()
	sc.PFC = true
	sc.ColorThreshold = 400_000
	sc.XOff = sc.BufferBytes / (2 * 12)
	sc.XOn = sc.XOff - 2*int64(transport.MSS+packet.HeaderBytes)
	return sc
}

func withPolicy(mmu, fc string) fabric.SwitchConfig {
	sc := dctcpSwitch()
	sc.MMU, sc.FC = mmu, fc
	return sc
}

// probeDemux delivers packets straight to Host.Receive for 64 registered
// flows whose IDs start at base: below 1<<22 they take the dense slot
// table, at or above it the map.
func probeDemux(base packet.FlowID) func(*probeSide) batchFn {
	return func(*probeSide) batchFn {
		h := fabric.NewHost(sim.New(), 0)
		pool := packet.NewPool()
		h.SetPool(pool)
		c := &counter{}
		for f := packet.FlowID(0); f < 64; f++ {
			h.Register(base+f, c)
		}
		return func(n int) (int, error) {
			start := c.n
			for i := 0; i < n; i++ {
				p := pool.Get()
				p.Flow = base + packet.FlowID(i&63)
				p.Type = packet.Ack
				h.Receive(p, 0)
			}
			if c.n-start != n || poolLive(pool) != 0 {
				return 0, fmt.Errorf("%d packets, %d demuxed, %d not recycled", n, c.n-start, poolLive(pool))
			}
			return n, nil
		}
	}
}

const mapFlowBase = packet.FlowID(1 << 22)

func probeRegister(*probeSide) batchFn {
	h := fabric.NewHost(sim.New(), 0)
	live, churn := &counter{}, &counter{}
	for f := packet.FlowID(0); f < 1024; f++ {
		h.Register(mapFlowBase+f, live)
	}
	next := mapFlowBase + 4096
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			h.Register(next, churn)
			h.Unregister(next)
			next++
		}
		h.Receive(&packet.Packet{Flow: next - 1, Type: packet.Ack}, 0)
		before := live.n
		h.Receive(&packet.Packet{Flow: mapFlowBase, Type: packet.Ack}, 0)
		if churn.n != 0 || live.n != before+1 {
			return 0, fmt.Errorf("unregistered flow still demuxed (%d) or live flow lost (%d)", churn.n, live.n-before)
		}
		return n, nil
	}
}

func probePool(*probeSide) batchFn {
	pool := packet.NewPool()
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow, p.Len = packet.FlowID(i), transport.MSS
			pool.Put(p)
		}
		if poolLive(pool) != 0 || pool.FreeLen() != 1 {
			return 0, fmt.Errorf("pool unbalanced: %d live, %d free", poolLive(pool), pool.FreeLen())
		}
		return n, nil
	}
}

// probePktBoard replays the per-ACK scoreboard work of the RoCE senders
// (Ack, Sack, RackMark, then one fresh send) with a steady window of
// outstanding packets.
func probePktBoard(window int64) func(*probeSide) batchFn {
	return func(*probeSide) batchFn {
		const boardLen = 1 << 16
		var b *transport.PktBoard
		now := sim.Time(0)
		return func(n int) (int, error) {
			for i := 0; i < n; i++ {
				if b == nil || b.Nxt >= boardLen {
					b = transport.NewPktBoard(boardLen)
					for p := int64(0); p < window; p++ {
						now += 80
						b.OnSent(p, false, now)
					}
				}
				una := b.Una
				sentAt := b.State(una).LastSent
				if !b.Ack(una + 1) {
					return 0, fmt.Errorf("cumulative ack of %d made no progress", una)
				}
				b.Sack(nil)
				b.RackMark(sentAt)
				now += 80
				b.OnSent(b.Nxt, false, now)
				if b.HasLoss() || b.InFlight() != window {
					return 0, fmt.Errorf("in-order acks left loss=%v inflight=%d, want window %d", b.HasLoss(), b.InFlight(), window)
				}
			}
			return n, nil
		}
	}
}

// probeRangeSet adds MSS-sized segments the way a receiver sees them:
// in order, with every fourth pair swapped (a reordering hole that the
// next segment fills).
func probeRangeSet(*probeSide) batchFn {
	return func(n int) (int, error) {
		n &^= 1
		var rs transport.RangeSet
		var covered int64
		for i := 0; i < n; i += 2 {
			a, b := int64(i), int64(i+1)
			if i&6 == 6 {
				a, b = b, a
			}
			covered += rs.Add(a*transport.MSS, (a+1)*transport.MSS)
			covered += rs.Add(b*transport.MSS, (b+1)*transport.MSS)
		}
		if want := int64(n) * transport.MSS; covered != want || rs.Total() != want || rs.Len() != 1 {
			return 0, fmt.Errorf("covered %d of %d bytes in %d ranges", covered, want, rs.Len())
		}
		return n, nil
	}
}

// flowStarter starts one flow of a transport family between the two
// hosts of a star.
type flowStarter func(s *sim.Sim, net *topo.Network, f *transport.Flow, rec *stats.Recorder, onDone func(*stats.FlowRecord))

func startTCP(s *sim.Sim, net *topo.Network, f *transport.Flow, rec *stats.Recorder, onDone func(*stats.FlowRecord)) {
	tcp.StartFlow(s, net.Hosts[0], net.Hosts[1], f, tcp.DCTCPConfig(), rec, onDone)
}

func startDCQCN(s *sim.Sim, net *topo.Network, f *transport.Flow, rec *stats.Recorder, onDone func(*stats.FlowRecord)) {
	dcqcn.StartFlow(s, net.Hosts[0], net.Hosts[1], f, dcqcn.DefaultConfig(dcqcn.SACK), rec, onDone)
}

func startHPCC(s *sim.Sim, net *topo.Network, f *transport.Flow, rec *stats.Recorder, onDone func(*stats.FlowRecord)) {
	hpcc.StartFlow(s, net.Hosts[0], net.Hosts[1], f, hpcc.DefaultConfig(net.BaseRTT+2*sim.Microsecond), rec, onDone)
}

func redSwitch() fabric.SwitchConfig {
	return fabric.SwitchConfig{BufferBytes: 4_500_000, Alpha: 1, ECN: fabric.ECNRed, KMin: 50_000, KMax: 200_000, PMax: 0.2}
}

func intSwitch() fabric.SwitchConfig {
	return fabric.SwitchConfig{BufferBytes: 4_500_000, Alpha: 1, INT: true}
}

// runFlows runs n flows of size bytes back to back, host – switch –
// host on a fresh star, each started when the previous one completes.
func runFlows(start flowStarter, sc fabric.SwitchConfig, size int64, n int, side *probeSide) (dataPkts int, err error) {
	s := sim.New()
	net := star(s, sc)
	rec := stats.NewRecorder()
	rec.Reserve(n)
	started := 0
	var next func(*stats.FlowRecord)
	launch := func() {
		started++
		f := &transport.Flow{ID: packet.FlowID(started), Src: 0, Dst: 1, Size: size, Start: s.Now()}
		start(s, net, f, rec, next)
	}
	next = func(*stats.FlowRecord) {
		if started < n {
			launch()
		} else {
			s.Stop()
		}
	}
	launch()
	s.Run(sim.Time(1) << 62)
	for _, fr := range rec.Flows {
		if !fr.Done {
			return 0, fmt.Errorf("flow %d of %d did not complete", fr.Flow.ID, n)
		}
		dataPkts += fr.SentPackets
	}
	if len(rec.Flows) != n {
		return 0, fmt.Errorf("started %d flows, want %d", len(rec.Flows), n)
	}
	side.Events += s.Processed
	side.Enqueues += enqueues(net)
	side.DataPkts += uint64(dataPkts)
	return dataPkts, nil
}

// probePktCost times one 1 MB flow at a time and reports host ns per
// data packet.
func probePktCost(start flowStarter, sc fabric.SwitchConfig) func(*probeSide) batchFn {
	return func(side *probeSide) batchFn {
		return func(n int) (int, error) {
			flows := n/1000 + 1
			return runFlows(start, sc, 1_000_000, flows, side)
		}
	}
}

// probeFlowCost times 8 kB flows back to back, StartFlow to done.
func probeFlowCost(side *probeSide) batchFn {
	return func(n int) (int, error) {
		_, err := runFlows(startTCP, dctcpSwitch(), 8_000, n, side)
		return n, err
	}
}

// allocsPerFlow counts heap allocations per 8 kB flow (a MemStats count:
// it repeats to ~1e-5, not exactly).
func allocsPerFlow() (float64, error) {
	const flows = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := runFlows(startTCP, dctcpSwitch(), 8_000, flows, &probeSide{})
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / flows, err
}

func probePoisson(*probeSide) batchFn {
	src := workload.NewPoisson(workload.PoissonConfig{
		Flows: 1 << 62, MeanGap: sim.Microsecond, Hosts: 128, Dist: workload.CacheFollower, Seed: 1,
	})
	last := sim.Time(0)
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			a, ok := src.Next()
			if !ok || a.At < last || a.Src == a.Dst {
				return 0, fmt.Errorf("bad arrival %+v after %v", a, last)
			}
			last = a.At
		}
		return n, nil
	}
}

func probeService(*probeSide) batchFn {
	src := app.NewService(app.ServiceConfig{
		Hosts: 128, Servers: 32, Keys: 128, Replicas: 3, Skew: 1.1,
		Requests: 1 << 62, MeanGap: sim.Microsecond, Fanout: 4, Dist: workload.RPC, Seed: 1,
	}).Stream()
	last := sim.Time(0)
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			a, ok := src.Next()
			if !ok || a.At < last || a.Src >= 32 || a.Dst < 32 {
				return 0, fmt.Errorf("bad arrival %+v after %v", a, last)
			}
			last = a.At
		}
		return n, nil
	}
}

func probeRecorder(*probeSide) batchFn {
	const chunk = 1 << 16 // flows per recorder, so a long batch stays bounded in memory
	f := &transport.Flow{ID: 1, Size: 8000, FG: true}
	return func(n int) (int, error) {
		var rec *stats.Recorder
		for i := 0; i < n; i++ {
			if i%chunk == 0 {
				if rec != nil && (len(rec.Flows) != chunk || !rec.Flows[chunk-1].Done) {
					return 0, fmt.Errorf("recorded %d of %d flows", len(rec.Flows), chunk)
				}
				rec = stats.NewRecorder()
			}
			rec.FlowDone(rec.NewFlowRecord(f), sim.Time(i))
		}
		if want := (n-1)%chunk + 1; len(rec.Flows) != want || !rec.Flows[want-1].Done {
			return 0, fmt.Errorf("recorded %d of %d flows", len(rec.Flows), want)
		}
		return n, nil
	}
}

// probeFold folds a 10k-flow exact recorder the way a figure does:
// Select, one sort, three quantiles. One operation is 1000 flows folded.
func probeFold(*probeSide) batchFn {
	const flows = 10_000
	rec := stats.NewRecorder()
	lcg := uint32(7)
	for i := 0; i < flows; i++ {
		lcg = lcg*1664525 + 1013904223
		f := &transport.Flow{ID: packet.FlowID(i + 1), Size: 8000, FG: i&1 == 0}
		rec.FlowDone(rec.NewFlowRecord(f), sim.Time(lcg>>8))
	}
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			sorted := stats.Sorted(rec.Select(true))
			p50 := stats.PercentileSorted(sorted, 0.5)
			p99 := stats.PercentileSorted(sorted, 0.99)
			p999 := stats.PercentileSorted(sorted, 0.999)
			if len(sorted) != flows/2 || !(p50 <= p99 && p99 <= p999) {
				return 0, fmt.Errorf("fold of %d flows gave p50=%v p99=%v p99.9=%v", len(sorted), p50, p99, p999)
			}
		}
		return n * flows / 1000, nil
	}
}

func probeHist(*probeSide) batchFn {
	h := stats.NewHist()
	lcg := uint32(3)
	return func(n int) (int, error) {
		start := h.Count()
		for i := 0; i < n; i++ {
			lcg = lcg*1664525 + 1013904223
			h.Record(int64(lcg >> 4))
		}
		if h.Count()-start != int64(n) {
			return 0, fmt.Errorf("recorded %d of %d samples", h.Count()-start, n)
		}
		return n, nil
	}
}

// probeStream folds retiring flows into the streaming aggregate the way
// the scale runner does: sender counters, completion, both epoch series.
func probeStream(*probeSide) batchFn {
	st := stats.NewStream(50 * sim.Microsecond)
	fr := &stats.FlowRecord{SentPackets: 8, TotalBytes: 8384, ImpPackets: 2, ImpBytes: 2096}
	now := sim.Time(0)
	return func(n int) (int, error) {
		cs := st.Class(true)
		start := cs.Done
		for i := 0; i < n; i++ {
			now += 100
			cs.Issued++
			st.Epochs.AddIssued(now)
			cs.FoldSender(fr)
			cs.FoldDone(20*sim.Microsecond, 8000)
			st.Epochs.AddDone(now, 8000)
		}
		if cs.Done-start != int64(n) {
			return 0, fmt.Errorf("folded %d of %d flows", cs.Done-start, n)
		}
		return n, nil
	}
}

// probes lists every P row, by the metric name it fills.
var probes = []probeDef{
	{Name: "sim.postpop_near_ns", Prep: probeSimNear},
	{Name: "sim.postpop_link_ns", Prep: probeSimLink},
	{Name: "sim.timer_rearm_ns", Prep: probeSimTimer},
	{Name: "sim.pdes_send_ns", Prep: probeSimPDES},
	{Name: "fabric.hop_ns_mtu", Prep: probeHop(dctcpSwitch(), packet.Data, transport.MSS, false)},
	{Name: "fabric.hop_ns_ack", Prep: probeHop(dctcpSwitch(), packet.Ack, 0, false)},
	{Name: "fabric.hop_ns_pfc", Prep: probeHop(pfcSwitch(), packet.Data, transport.MSS, true)},
	{Name: "fabric.demux_dense_ns", Prep: probeDemux(1)},
	{Name: "fabric.demux_map_ns", Prep: probeDemux(mapFlowBase)},
	{Name: "fabric.register_ns", Prep: probeRegister},
	{Name: "mmu.hop_ns_bshare", Prep: probeHop(withPolicy("bshare", ""), packet.Data, transport.MSS, false)},
	{Name: "mmu.hop_ns_bfc", Prep: probeHop(withPolicy("", "bfc"), packet.Data, transport.MSS, false)},
	{Name: "packet.pool_getput_ns", Prep: probePool},
	{Name: "transport.pktboard_ack_ns_w64", Prep: probePktBoard(64)},
	{Name: "transport.pktboard_ack_ns_w1024", Prep: probePktBoard(1024)},
	{Name: "transport.rangeset_add_ns", Prep: probeRangeSet},
	{Name: "tcp.pkt_ns", Prep: probePktCost(startTCP, dctcpSwitch())},
	{Name: "dcqcn.pkt_ns", Prep: probePktCost(startDCQCN, redSwitch())},
	{Name: "hpcc.pkt_ns", Prep: probePktCost(startHPCC, intSwitch())},
	{Name: "tcp.flow_ns_8k", Prep: probeFlowCost},
	{Name: "workload.poisson_next_ns", Prep: probePoisson},
	{Name: "app.service_next_ns", Prep: probeService},
	{Name: "stats.recorder_flow_ns", Prep: probeRecorder},
	{Name: "stats.fold_ms_per_kflow", PerOp: 1e-6, Prep: probeFold},
	{Name: "stats.hist_record_ns", Prep: probeHist},
	{Name: "stats.stream_fold_ns", Prep: probeStream},
}
