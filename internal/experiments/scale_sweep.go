package experiments

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"tlt/internal/app"
	"tlt/internal/chaos"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
	"tlt/internal/transport"
	"tlt/internal/transport/tcp"
	"tlt/internal/workload"
)

// This file is the bounded-memory scale experiment: k-ary fat-trees up
// to thousands of hosts under open-loop service traffic with connection
// churn, aggregated entirely through streaming histograms so memory is
// O(live flows + histogram buckets), never O(flows issued).
//
// Its source differs from the Traffic schedule on purpose. Instead of
// materializing the flow schedule and registering every endpoint up
// front, every shard constructs an identical deterministic
// arrival Source (same seeds) and walks the full schedule with one
// self-rescheduling event, spawning only the endpoint halves it owns.
// No arrival ever crosses a shard boundary, so the schedule — and with
// it the report — is byte-identical at any shard count. Retiring flows
// fold into per-shard stats.Stream aggregates (integer counters and
// log-bucketed histograms) that merge in shard order after the run.

// scaleFlowBase is the first scale-run flow ID. Flow IDs feed the
// switches' ECMP hash, so the base fixes every path a scale run takes.
const scaleFlowBase = 1 << 22

// openLoop is the scale sweep's source: calibrated open-loop RPC fan-in
// with churn (scaleSource), walked lazily by one scaleWalker per shard
// into per-shard stats.Streams. The run stops once every flow is done.
type openLoop struct {
	load     float64 // target utilization of the hottest server's uplink
	requests int     // open-loop RPC request arrivals
	fanout   int     // response flows per request
}

// scaleGrace is how long a completed receiver lingers before its demux
// slot is reaped, re-armed by any late packet. It must exceed the
// sender's retransmission gap so a lost final ACK still finds a
// receiver to re-ACK; 2×RTOmin covers one backoff round. Lingering
// receivers are the dominant reaped-state cost: arrival_rate × grace
// objects.
func scaleGrace(cfg tcp.Config) sim.Time { return 2 * cfg.RTO.Min }

// scaleService builds the cell's service model: a replicated server
// pool on the first quarter of hosts, Zipf-skewed keys, the RPC
// response-size distribution, and requests a mean gap apart.
func scaleService(o openLoop, hosts int, seed int64, gap sim.Time) *app.Service {
	servers := hosts / 4
	return app.NewService(app.ServiceConfig{
		Hosts:    hosts,
		Servers:  servers,
		Keys:     4 * servers,
		Replicas: 3,
		Skew:     1.1,
		Requests: o.requests,
		MeanGap:  gap,
		Fanout:   o.fanout,
		Dist:     workload.RPC,
		Seed:     seed,
	})
}

// scaleSource returns the cell's full arrival stream: calibrated
// open-loop RPC fan-in plus a 5% background elephant stream between
// random hosts. Deterministic given (o, hosts, rate, seed) — every
// shard builds its own identical copy.
func scaleSource(o openLoop, hosts int, rateBps int64, seed int64) workload.Source {
	// Calibrate the request rate so the *hottest* server's egress
	// utilization — not the fabric average — hits the target load:
	// share_max · λ · Fanout · E[size] · 8 = load · rate. The share
	// comes from a gapless probe build of the service (ServiceConfig is
	// immutable once the Service is constructed).
	share := scaleService(o, hosts, seed, 0).MaxServerShare()
	mean := workload.RPC.Mean()
	lam := o.load * float64(rateBps) / (8 * share * float64(o.fanout) * mean)
	gap := sim.Time(1e9 / lam)
	if gap < 1 {
		gap = 1
	}
	rpc := scaleService(o, hosts, seed, gap)
	bg := workload.NewPoisson(workload.PoissonConfig{
		Flows:   o.requests / 20,
		MeanGap: gap * 20,
		Hosts:   hosts,
		Dist:    workload.CacheFollower,
		Seed:    seed + 500_000,
	})
	return workload.MergeSources(rpc.Stream(), bg)
}

// Endpoint state is recycled, not allocated per flow: a walker draws
// sender slabs, receiver slabs and demux slots from its shard's part of
// the slot's arena (arena.go) and pushes them back as flows finish, so a
// cell allocates O(peak live flows) endpoints however many flows it
// issues. A slab goes back from inside its endpoint's completion callback
// and is only taken by a later step event; packets of its previous flow
// miss the demux map and stale sim.Timer handles are generation-checked.

// sndSlab is the sender half of one flow: the endpoint, the flow
// descriptor and record it points at, and its completion callback bound
// once so re-arming a slab allocates nothing. Sources that start every
// flow at set-up use the endpoint alone (lend).
type sndSlab struct {
	tcp.Sender
	w      *scaleWalker
	flow   transport.Flow
	rec    stats.FlowRecord
	doneFn func()
}

// done is the sender-side completion: everything is ACKed and the tick
// events are stopped. Fold the sender-owned counters and recycle.
func (sl *sndSlab) done() {
	w := sl.w
	w.stream.Class(sl.flow.FG).FoldSender(&sl.rec)
	w.net.Hosts[sl.flow.Src].Unregister(sl.flow.ID)
	w.mem.tcp.snd.push(sl)
}

// Clear drops the slab's references to the cell it served.
func (sl *sndSlab) Clear() {
	sl.Sender.Clear()
	sl.w, sl.flow, sl.rec = nil, transport.Flow{}, stats.FlowRecord{}
}

// rcvSlab is the receiver half of one flow while data is still arriving.
// It returns to the free list on full delivery; the slot it served
// lingers on without it.
type rcvSlab struct {
	tcp.Receiver
	flow   transport.Flow
	slot   *rcvSlot
	doneFn func()
}

// done is the receiver's OnComplete, on full delivery: it folds the flow,
// detaches from the slot (which re-ACKs on its own from here) and
// recycles the slab, which nothing takes before a later step event.
func (rb *rcvSlab) done() {
	slot := rb.slot
	w := slot.w
	now := w.ssim.Now()
	w.stream.Class(rb.flow.FG).FoldDone(now-rb.flow.Start, rb.flow.Size)
	w.stream.Epochs.AddDone(now, rb.flow.Size)
	slot.rcv, rb.slot = nil, nil
	w.mem.tcp.rcv.push(rb)
	w.ssim.PostKind(now+w.grace, kindReap, 0, slot)
	if w.rem.Add(-1) == 0 {
		w.g.RequestStop()
	}
}

// Clear drops the slab's references to the cell it served.
func (rb *rcvSlab) Clear() {
	rb.Receiver.Clear()
	rb.flow, rb.slot = transport.Flow{}, nil
}

// rcvSlot is a streaming-run receiver's demux entry, kept for
// quiescence-based reaping: Handle timestamps every arriving packet, and
// the reap timer only retires the slot once the flow has been quiet for
// the grace period (a retransmit of a lost final ACK re-arms it).
//
// Once the flow has fully delivered, the heavyweight receiver slab (range
// set, TLT window state, flow struct) is recycled and rcv
// set to nil; any data packet that arrives during the grace window —
// a retransmit of the final segment whose ACK was lost — gets its
// cumulative ACK synthesized from the few words kept here. Completion-
// rate × grace lingering slots are the dominant steady-state heap of a
// compressed million-flow run, so their size matters.
type rcvSlot struct {
	w      *scaleWalker
	host   *fabric.Host
	rcv    *tcp.Receiver // its slab's receiver; nil once fully delivered
	lastRx sim.Time
	peer   packet.NodeID // sender, the synthesized ACK's destination
	id     packet.FlowID
	size   int64
}

func (rs *rcvSlot) Handle(p *packet.Packet) {
	rs.lastRx = rs.w.ssim.Now()
	if rs.rcv != nil {
		rs.rcv.Handle(p)
		return
	}
	if p.Type != packet.Data {
		return
	}
	ack := rs.host.NewPacket()
	ack.Flow, ack.Dst = rs.id, rs.peer
	ack.Type = packet.Ack
	ack.TC = rs.w.cfg.TrafficClass
	ack.Ack = rs.size
	ack.ECE = p.CE
	rs.host.Send(ack)
}

// demuxSlot returns a reaped demux slot of m's, or a new one.
func (m *shardMem) demuxSlot() *rcvSlot {
	if m.tcp.took = true; len(m.slot.free) > 0 {
		return m.slot.pop()
	}
	return new(rcvSlot)
}

// kindReap fires a slot's reap check as a typed event: a slot outlives
// its flow by the grace period, so at steady state slots are the one
// per-flow object left, and a bound method value would double their count.
var kindReap sim.EventKind

func init() {
	kindReap = sim.NewKind(func(_, arg any) { arg.(*rcvSlot).reap() })
}

// reap retires the slot once it has been quiet for the grace period,
// or re-arms itself at the end of the current quiet window.
func (rs *rcvSlot) reap() {
	w := rs.w
	if quiet := w.ssim.Now() - rs.lastRx; quiet >= w.grace {
		rs.host.Unregister(rs.id)
		w.mem.slot.push(rs)
		return
	}
	w.ssim.PostKind(rs.lastRx+w.grace, kindReap, 0, rs)
}

// scaleWalker is one shard's view of a streaming run.
type scaleWalker struct {
	ssim   *sim.Sim
	g      *sim.Group
	net    *topo.Network
	shard  int
	src    workload.Source
	next   workload.Arrival
	ok     bool
	seq    int64 // global arrival index (identical on every shard)
	cfg    tcp.Config
	grace  sim.Time
	stream *stats.Stream
	rem    *atomic.Int64
	stepFn func()
	mem    *shardMem // this shard's free lists of finished endpoints
}

// step processes every arrival due now that this shard owns, then
// fast-forwards the iterator past foreign arrivals to the next owned
// one and schedules itself there. The iterator advance is where each
// shard replays the global schedule; spawning is the only part gated on
// ownership.
func (w *scaleWalker) step() {
	now := w.ssim.Now()
	for w.ok {
		a := w.next
		sShard := w.net.HostShard[a.Src]
		rShard := w.net.HostShard[a.Dst]
		mine := sShard == w.shard || rShard == w.shard
		if a.At > now {
			if mine {
				w.ssim.At(a.At, w.stepFn)
				return
			}
		} else if mine {
			fl := transport.Flow{
				ID:  packet.FlowID(scaleFlowBase + w.seq),
				Src: packet.NodeID(a.Src), Dst: packet.NodeID(a.Dst),
				Size: a.Size, Start: a.At, FG: a.FG,
			}
			// Receiver half first: it must exist before the first
			// data packet, which is at least two link delays away.
			if rShard == w.shard {
				w.spawnReceiver(fl)
			}
			if sShard == w.shard {
				w.spawnSender(fl)
			}
		}
		w.seq++
		w.next, w.ok = w.src.Next()
	}
}

func (w *scaleWalker) spawnSender(fl transport.Flow) {
	sl := w.mem.tcp.sender()
	if sl.doneFn == nil {
		sl.doneFn = sl.done
	}
	sl.w, sl.flow = w, fl
	sl.rec = stats.FlowRecord{Flow: &sl.flow}
	w.stream.Class(fl.FG).Issued++
	w.stream.Epochs.AddIssued(fl.Start)
	host := w.net.Hosts[fl.Src]
	sl.Reset(host, &sl.flow, w.cfg, &sl.rec)
	sl.OnComplete = sl.doneFn
	host.Register(fl.ID, &sl.Sender)
	sl.Write(fl.Size)
	sl.Close()
}

func (w *scaleWalker) spawnReceiver(fl transport.Flow) {
	host := w.net.Hosts[fl.Dst]
	rb := w.mem.tcp.receiver()
	if rb.doneFn == nil {
		rb.doneFn = rb.done
	}
	rb.flow = fl
	rb.Reset(host, &rb.flow, w.cfg, nil)
	rb.OnComplete = rb.doneFn
	slot := w.mem.demuxSlot()
	*slot = rcvSlot{
		w: w, host: host, rcv: &rb.Receiver,
		peer: fl.Src, id: fl.ID, size: fl.Size,
	}
	rb.slot = slot
	host.Register(fl.ID, slot)
}

// The invariant auditor reads the whole fabric from event callbacks and
// the walkers recycle endpoints under it; it is not wired.
func (openLoop) audited() bool { return false }

// start pre-walks the schedule once for the flow total and the last
// arrival (both deterministic functions of the config), then posts every
// shard's walker at 0 and asks for 100 µs queue samples, which finish
// folds into the merged stream's histogram: bounded post-run storage.
func (o openLoop) start(c *cell) (sim.Time, func(*Result)) {
	rc := c.rc
	v := rc.Variant
	if v.Transport != "tcp" && v.Transport != "dctcp" {
		panic("scale-sweep: only the TCP family is wired for streaming runs, got " + v.Transport)
	}
	if v.MaxRetries != 0 {
		// Completion accounting is a bare atomic decrement; the
		// abort/completion race dedup of the Traffic schedule would need
		// O(flows) state, so retry-forever is a precondition here.
		panic("scale-sweep: MaxRetries must be 0 (retry forever)")
	}
	hosts, rate := len(c.net.Hosts), c.net.LinkRateBps
	var total int64
	var last sim.Time
	for src := scaleSource(o, hosts, rate, rc.Seed); ; total++ {
		a, ok := src.Next()
		if !ok {
			break
		}
		last = a.At
	}
	epochW := max(last/128, 50*sim.Microsecond)

	cfg := v.tcpConfig()
	rem := new(atomic.Int64)
	rem.Store(total)
	streams := make([]*stats.Stream, c.g.Shards())
	for sh := range streams {
		streams[sh] = stats.NewStream(epochW)
		w := &scaleWalker{
			ssim:   c.g.Shard(sh),
			g:      c.g,
			net:    c.net,
			shard:  sh,
			src:    scaleSource(o, hosts, rate, rc.Seed),
			cfg:    cfg,
			grace:  scaleGrace(cfg),
			stream: streams[sh],
			rem:    rem,
			mem:    c.ar.shards[sh],
		}
		w.stepFn = w.step
		w.next, w.ok = w.src.Next()
		w.ssim.At(0, w.stepFn)
	}
	c.tick = 100 * sim.Microsecond

	return last + 2*sim.Second, func(res *Result) {
		// Merge per-shard aggregates in shard order. Every field is
		// integer-derived, so the result is independent of the partition.
		agg := stats.NewStream(epochW)
		for _, st := range streams {
			agg.Merge(st)
		}
		for _, q := range c.queues {
			agg.Queue.Record(q)
		}
		res.Rec, res.App = stats.NewRecorder(), agg
		res.FlowCount, res.Incomplete, res.TrafficLast = int(total), int(rem.Load()), last
		if res.Incomplete > 0 {
			res.Notef("%s seed %d: incomplete=%d of %d flows at horizon %v",
				rc.label(), rc.Seed, res.Incomplete, total, res.Elapsed)
		}
	}
}

// scaleAxes returns the sweep axes, trimmed by AppPoints. The k axis is
// ordered so `-points 1` selects the CI smoke fabric (k=8, 128 hosts)
// and `-points 2` adds the kilo-host one. At full tier (>= 100k
// requests, i.e. a million-flow run counting fan-out) the axis switches
// to the 10k-host fabric the tentpole targets — k=34, 9826 hosts — so
// the bounded-memory claim is exercised where it matters.
func scaleAxes(scale Scale) (ks []int, loads []float64) {
	ks = []int{8, 16, 4}
	if scale.BgFlows >= 100_000 {
		ks = []int{34}
	}
	loads = []float64{0.6, 0.9}
	if n := scale.AppPoints; n > 0 {
		if n < len(ks) {
			ks = ks[:n]
		}
		if n < len(loads) {
			loads = loads[:n]
		}
	}
	return ks, loads
}

// ScaleSweep is the bounded-memory scale study: fat-tree size × hot-
// server load × TLT on/off under open-loop RPC fan-in with churn.
// Reports stream-aggregated FCT quantiles, timeout rates, live-flow
// peaks and goodput dips — all derived from integer state, so rows are
// byte-identical at any -procs/-shards.
func ScaleSweep(scale Scale) *Report {
	rep := &Report{
		ID:    "scale-sweep",
		Title: "open-loop service scale: fat-tree size × load × TLT",
		Header: []string{
			"k", "hosts", "load", "variant", "flows", "done",
			"fg p50", "fg p99", "fg p99.9", "bg p99",
			"to/1k", "peak live", "gdip", "q p99",
		},
	}
	ks, loads := scaleAxes(scale)
	variants := []Variant{
		{Transport: "dctcp"},
		{Transport: "dctcp", TLT: true},
	}
	// Bounded-memory mode: a compressed million-flow run allocates fast
	// enough that the default GOGC=100 lets the heap ride to 2× live
	// before a cycle, doubling peak RSS for no benefit. Trading a few
	// extra GC CPU for a 1.5× ceiling keeps the documented 256 MiB
	// budget honest. Restored on return so grids run elsewhere in the
	// process (other experiments, tests) see the default.
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	sw := newSweep(rep)
	for _, k := range ks {
		for _, load := range loads {
			for _, v := range variants {
				k, load, v := k, load, v
				rc := RunConfig{
					Variant:  v,
					Label:    fmt.Sprintf("scale k=%d load=%.1f %s", k, load, v.Name()),
					Topology: fatTree{k},
					Source:   openLoop{load: load, requests: scale.BgFlows, fanout: 4},
					// Pin an empty plan so the session -chaos flag
					// cannot alter this grid.
					Faults: &chaos.Plan{},
				}
				sw.add(rc, scale.Seeds, func(rs []*Result) {
					foldScaleRow(rep, k, load, v, rs)
				})
			}
		}
	}
	sw.exec()
	return rep
}

// foldScaleRow renders one (k, load, variant) row from its seed cells.
// Histograms and counters pool across seeds; peak live flows is a max
// (merging epoch series across seeds would sum coincident peaks).
func foldScaleRow(rep *Report, k int, load float64, v Variant, rs []*Result) {
	pool := stats.NewStream(sim.Millisecond)
	var peak int64
	var gdipSum float64
	var gdipN int
	var flows int64
	ok := false
	for _, r := range rs {
		if r == nil || r.Panicked {
			continue
		}
		st, good := r.App.(*stats.Stream)
		if !good {
			continue
		}
		ok = true
		flows += int64(r.FlowCount)
		pool.FG.FCT.Merge(st.FG.FCT)
		pool.BG.FCT.Merge(st.BG.FCT)
		pool.Queue.Merge(st.Queue)
		pool.FG.Timeouts += st.FG.Timeouts
		pool.BG.Timeouts += st.BG.Timeouts
		pool.FG.Done += st.FG.Done
		pool.BG.Done += st.BG.Done
		if pl := st.Epochs.PeakLive(); pl > peak {
			peak = pl
		}
		if d, okd := goodputDip(st.Epochs); okd {
			gdipSum += d
			gdipN++
		}
	}
	if !ok {
		rep.AddRow(fmt.Sprint(k), fmt.Sprint(topo.FatTreeHosts(k)),
			fmt.Sprintf("%.1f", load), v.Name(), "n/a", "n/a",
			"n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
		return
	}
	done := pool.FG.Done + pool.BG.Done
	toPer1k := float64(pool.FG.Timeouts+pool.BG.Timeouts) / float64(flows) * 1000
	gdip := "n/a"
	if gdipN > 0 {
		gdip = fmt.Sprintf("%.2f", gdipSum/float64(gdipN))
	}
	q := func(h *stats.Hist, p float64) string {
		if h.Count() == 0 {
			return "n/a"
		}
		return stats.FmtDur(float64(h.Quantile(p)) / 1e9)
	}
	rep.AddRow(
		fmt.Sprint(k),
		fmt.Sprint(topo.FatTreeHosts(k)),
		fmt.Sprintf("%.1f", load),
		v.Name(),
		fmt.Sprint(flows),
		fmt.Sprint(done),
		q(pool.FG.FCT, 0.5),
		q(pool.FG.FCT, 0.99),
		q(pool.FG.FCT, 0.999),
		q(pool.BG.FCT, 0.99),
		fmt.Sprintf("%.2f", toPer1k),
		fmt.Sprint(peak),
		gdip,
		fmt.Sprintf("%.0fkB", float64(pool.Queue.Quantile(0.99))/1e3),
	)
}

// goodputDip returns min/mean of per-epoch completed bytes over the
// busy window (first to last epoch with completions). A dip near 1 is
// steady goodput; near 0 means completion stalls (timeout craters).
func goodputDip(e *stats.Epochs) (float64, bool) {
	lo, hi := -1, -1
	for i, d := range e.Done {
		if d > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 || hi == lo {
		return 0, false
	}
	minB := e.Bytes[lo]
	var sum int64
	for i := lo; i <= hi; i++ {
		if e.Bytes[i] < minB {
			minB = e.Bytes[i]
		}
		sum += e.Bytes[i]
	}
	mean := float64(sum) / float64(hi-lo+1)
	if mean == 0 {
		return 0, false
	}
	return float64(minB) / mean, true
}
