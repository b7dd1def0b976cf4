package experiments

import (
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

// An arena is the memory a grid worker slot carries from one cell to the
// next. A figure is hundreds of cells on the same fabric, and each cell's
// warm-up — packets and their extensions, event nodes, NIC and switch
// queues, demux tables, TCP endpoints, RoCE queue pairs and their
// scoreboards — grows to much the same size, so a slot pays that growth
// once instead of once per cell. The arena is the slot's token in RunGrid's semaphore: holding it
// is both the right to run and the memory to run in, and it changes
// goroutines only through that channel. A cell run outside a grid gets a
// private arena (RunConfig.arena), so every driver has the one code path.
//
// Nothing a cell computes may depend on what ran on its slot before.
// Every layer therefore returns its memory zeroed (Pool.Put, the
// Release methods of sim, fabric and the slabs here) and re-initialises
// what it takes (the endpoints' Reset methods), and TestArenaIsolation
// holds the drivers to it.
//
// What an arena keeps follows the last cell that had a use for it, no
// more: whatever a cell was offered and did not touch — spare packets
// and event chunks, buffers it never filled a quarter of, endpoints
// below each free list's low-water mark — is dropped when the cell
// releases, so a small cell after a large one shrinks the slot and
// nothing ratchets up over a long grid. Memory a cell has no use for at
// all is not its to judge: a cell on another fabric leaves this fabric's
// alone (fabricFor), and a cell of one transport family — tcp, dcqcn,
// hpcc — the endpoint lists of the other two (trimEndpoints). Which cell
// follows which on a slot is the goroutine scheduler's choice; while a
// star or RoCE cell between two leaf-spine TCP cells cost the second its
// warm-up again, what a mixed grid allocated varied by a quarter from run
// to run.
type arena struct {
	fabrics [2]fabricSet // [0]: the last cell's fabric; [1]: one other (fabricFor)
	shards  []*shardMem  // fabrics[0]'s, by shard index

	// lent lists the endpoint pairs startTCP, startDCQCN and startHPCC
	// have handed to the current cell; release takes back the finished
	// ones.
	lent []lentConn
}

// shardMem is the part of an arena that belongs to one shard of the
// running cell. Between the barriers of a sharded run only the goroutine
// driving that shard touches it.
type shardMem struct {
	sched  sim.Mem      // event-node chunks, mailbox buffers
	pkts   packet.Stock // free packets and their extensions, zeroed
	fabric fabric.Mem   // host and switch-queue buffers

	// took says which families' lists below the running cell has taken
	// from: only those does it trim.
	took [families]bool

	// Finished TCP endpoints and demux slots. The streaming runner pushes
	// and pops them while it runs; the other drivers take at set-up and
	// return at release. Every driver's senders share boards while they
	// run: a scoreboard belongs to a flow in flight, not to an endpoint.
	snd    freeList[sndSlab]
	rcv    freeList[rcvSlab]
	slot   freeList[rcvSlot]
	boards transport.ByteBoards

	// Finished RoCE queue pairs, taken at set-up and returned at release.
	// The two laws embed the same transport.QPSender but keep a list
	// each, boards included: an hpcc window is not a dcqcn one.
	dcqcn roceMem[dcqcn.Sender, dcqcn.Receiver]
	hpcc  roceMem[hpcc.Sender, hpcc.Receiver]
}

// A family is a set of transports whose endpoints one cell can use.
const (
	famTCP = iota
	famDCQCN
	famHPCC
	families
)

// roceMem is one RoCE family's share of a shardMem.
type roceMem[S, R any] struct {
	snd    freeList[S]
	rcv    freeList[R]
	boards transport.PktBoards
}

// shape tells fabrics apart as far as recycled memory goes: device i
// adopts what device i of the last network of the same shape grew.
type shape struct{ hosts, switches, shards int }

func (s shape) devices() int { return s.hosts + s.switches }

// fabricSet is the memory that fits networks of one shape.
type fabricSet struct {
	shape  shape
	shards []*shardMem // by shard index
}

// freeList is a stack of parked slabs that remembers how short it has
// been since its last trim: the slabs below that mark were not needed.
type freeList[T any] struct {
	free []*T
	low  int
}

// pop takes the most recently pushed slab; nil when the list is empty.
func (l *freeList[T]) pop() *T {
	n := len(l.free) - 1
	if n < 0 {
		return nil
	}
	l.low = min(l.low, n)
	v := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	return v
}

func (l *freeList[T]) push(v *T) { l.free = append(l.free, v) }

// trim drops the slabs nobody popped since the last trim.
func (l *freeList[T]) trim() {
	n := copy(l.free, l.free[l.low:])
	clear(l.free[n:])
	l.free, l.low = l.free[:n], n
}

// lentConn is one flow's endpoints on loan to a materialized-schedule
// driver — *sndSlab and *rcvSlab, or a dcqcn or hpcc sender and receiver
// — with the shards whose lists they go back to.
type lentConn struct {
	snd, rcv       any
	sShard, rShard int
}

// newSlots returns a semaphore of n worker slots, each holding its arena.
func newSlots(n int) chan *arena {
	sem := make(chan *arena, n)
	for i := 0; i < n; i++ {
		sem <- new(arena)
	}
	return sem
}

// arena returns the memory of the grid slot the cell runs on, or a
// private one for a cell run directly.
func (rc RunConfig) arena() *arena {
	if rc.mem != nil {
		return rc.mem
	}
	return new(arena)
}

// shardOf reads a device's shard from a Network's HostShard/SwitchShard,
// which the single-simulator builders leave nil.
func shardOf(shards []int, i int) int {
	if shards == nil {
		return 0
	}
	return shards[i]
}

// attach hands a newly built network the slot's memory, shard by shard
// (a network has one packet pool per shard): scheduler memory to its
// simulators, free packets to its pools, buffers to its hosts and switch
// queues. Devices adopt in build order; release returns in reverse (see
// fabric.Mem).
func (a *arena) attach(net *topo.Network) {
	clear(a.lent) // a cell that panicked never released
	a.lent = a.lent[:0]
	a.shards = a.fabricFor(shape{len(net.Hosts), len(net.Switches), len(net.Pools)})
	if g := net.Group; g != nil {
		for i := 0; i < g.Shards(); i++ {
			g.Adopt(i, &a.shards[i].sched)
		}
	} else {
		net.Sim.Adopt(&a.shards[0].sched)
	}
	for i, p := range net.Pools {
		m := a.shards[i]
		p.Adopt(m.pkts)
		m.pkts = packet.Stock{}
	}
	for i, h := range net.Hosts {
		h.Adopt(&a.shards[shardOf(net.HostShard, i)].fabric)
	}
	for i, sw := range net.Switches {
		sw.Adopt(&a.shards[shardOf(net.SwitchShard, i)].fabric)
	}
	for _, m := range a.shards {
		m.fabric = fabric.Mem{} // buffers no device of this network took
		m.took = [families]bool{}
	}
}

// fabricFor makes the memory for networks of shape sh the set in use and
// returns it, by shard. A slot keeps two sets because figures on the
// leaf-spine and figures on the testbed star or the dumbbell share the
// worker slots. A third fabric takes the place of the smaller of the
// two, the cheaper one to grow again; one bigger than both takes the
// place of both, so a sweep over growing fabrics does not hold the last
// size while it runs the next.
func (a *arena) fabricFor(sh shape) []*shardMem {
	f := &a.fabrics
	switch {
	case f[0].shape == sh:
	case f[1].shape == sh:
		f[0], f[1] = f[1], f[0]
	default:
		if f[0].shape.devices() > f[1].shape.devices() {
			f[1] = f[0]
		}
		if sh.devices() > f[1].shape.devices() {
			f[1] = fabricSet{}
		}
		f[0] = fabricSet{shape: sh, shards: make([]*shardMem, sh.shards)}
		for i := range f[0].shards {
			f[0].shards[i] = new(shardMem)
		}
	}
	return f[0].shards
}

// release takes the memory back once the cell's Result is assembled. The
// network and its simulators are dead afterwards. Of the endpoints on
// loan only those whose flow completed return: an unfinished or aborted
// flow's state is dropped with the network.
func (a *arena) release(net *topo.Network) {
	for _, l := range a.lent {
		sm, rm := a.shards[l.sShard], a.shards[l.rShard]
		switch snd := l.snd.(type) {
		case *sndSlab:
			if completed(&snd.snd) {
				sm.snd.push(snd)
				rm.rcv.push(l.rcv.(*rcvSlab))
			}
		case *dcqcn.Sender:
			if completed(snd) {
				sm.dcqcn.snd.push(snd)
				rm.dcqcn.rcv.push(l.rcv.(*dcqcn.Receiver))
			}
		case *hpcc.Sender:
			if completed(snd) {
				sm.hpcc.snd.push(snd)
				rm.hpcc.rcv.push(l.rcv.(*hpcc.Receiver))
			}
		}
	}
	clear(a.lent)
	a.lent = a.lent[:0]
	for i := len(net.Switches) - 1; i >= 0; i-- {
		net.Switches[i].Release(&a.shards[shardOf(net.SwitchShard, i)].fabric)
	}
	for i := len(net.Hosts) - 1; i >= 0; i-- {
		net.Hosts[i].Release(&a.shards[shardOf(net.HostShard, i)].fabric)
	}
	for i, p := range net.Pools {
		a.shards[i].pkts = p.Release()
	}
	if g := net.Group; g != nil {
		for i := 0; i < g.Shards(); i++ {
			g.Release(i, &a.shards[i].sched)
		}
	} else {
		net.Sim.Release(&a.shards[0].sched)
	}
	// Parked endpoints must not pin the network, recorder and flows of
	// the cell they last served.
	a.trimEndpoints()
	for _, m := range a.shards {
		parkAll(&m.snd)
		parkAll(&m.rcv)
		for _, rs := range m.slot.free {
			*rs = rcvSlot{}
		}
		parkAll(&m.dcqcn.snd)
		parkAll(&m.dcqcn.rcv)
		parkAll(&m.hpcc.snd)
		parkAll(&m.hpcc.rcv)
	}
}

// completed reports whether a sender on loan can serve another flow.
func completed(snd interface {
	Done() bool
	Aborted() bool
}) bool {
	return snd.Done() && !snd.Aborted()
}

// parkAll clears every slab on l of what it holds of the cell it served.
func parkAll[T any, P interface {
	*T
	Clear()
}](l *freeList[T]) {
	for _, v := range l.free {
		P(v).Clear()
	}
}

// trimEndpoints drops the endpoints and demux slots no flow has taken
// since the last trim — and, when no sender is on loan to take one, the
// scoreboards. release ends with it; Run also calls it as soon as its
// flows are set up, when what is left on the lists can no longer be
// taken, so a small cell does not sit on a larger one's endpoints for its
// whole run. The lists of a family the cell has taken nothing from — the
// TCP lists under a RoCE cell, dcqcn's under an hpcc cell — stay as they
// are: the next cell of that family would only grow them again.
func (a *arena) trimEndpoints() {
	idle := len(a.lent) == 0 // release has emptied it; Run has not if the cell has flows
	for _, m := range a.shards {
		if m.took[famTCP] {
			m.snd.trim()
			m.rcv.trim()
			m.slot.trim()
			if idle {
				m.boards.Trim()
			}
		}
		if m.took[famDCQCN] {
			m.dcqcn.trim(idle)
		}
		if m.took[famHPCC] {
			m.hpcc.trim(idle)
		}
	}
}

func (f *roceMem[S, R]) trim(boards bool) {
	f.snd.trim()
	f.rcv.trim()
	if boards {
		f.boards.Trim()
	}
}

// startTCP is tcp.StartFlow on the slot's recycled endpoints: the sender
// comes from the source host's shard, the receiver from the
// destination's. f.Src and f.Dst index net.Hosts.
func (a *arena) startTCP(net *topo.Network, f *transport.Flow, cfg tcp.Config,
	rec *stats.Recorder, onDone func(*stats.FlowRecord)) *tcp.Sender {
	sm, rm, l := a.lend(net, f)
	snd, rcv := sm.sender(), rm.receiver()
	l.snd, l.rcv = snd, rcv
	tcp.StartFlowOn(tcp.Conn{Sender: &snd.snd, Receiver: &rcv.rcv},
		net.Hosts[f.Src], net.Hosts[f.Dst], f, cfg, rec, onDone)
	return &snd.snd
}

// lend opens f's entry in lent for the caller to fill in, and returns the
// memory of the shards f's sender and receiver live on.
func (a *arena) lend(net *topo.Network, f *transport.Flow) (sm, rm *shardMem, l *lentConn) {
	s, r := shardOf(net.HostShard, int(f.Src)), shardOf(net.HostShard, int(f.Dst))
	a.lent = append(a.lent, lentConn{sShard: s, rShard: r})
	return a.shards[s], a.shards[r], &a.lent[len(a.lent)-1]
}

// startDCQCN is dcqcn.StartFlow on the slot's recycled queue pairs, the
// way startTCP is tcp's.
func (a *arena) startDCQCN(net *topo.Network, f *transport.Flow, cfg dcqcn.Config,
	rec *stats.Recorder, onDone func(*stats.FlowRecord)) *dcqcn.Sender {
	sm, rm, l := a.lend(net, f)
	sm.took[famDCQCN], rm.took[famDCQCN] = true, true
	snd, rcv := sm.dcqcn.snd.pop(), rm.dcqcn.rcv.pop()
	if snd == nil {
		snd = new(dcqcn.Sender)
		snd.Board.Share(&sm.dcqcn.boards)
	}
	if rcv == nil {
		rcv = new(dcqcn.Receiver)
	}
	l.snd, l.rcv = snd, rcv
	dcqcn.StartFlowOn(dcqcn.Conn{Sender: snd, Receiver: rcv}, net.Hosts[f.Src], net.Hosts[f.Dst], f, cfg, rec, onDone)
	return snd
}

// startHPCC is hpcc.StartFlow on the slot's recycled queue pairs.
func (a *arena) startHPCC(net *topo.Network, f *transport.Flow, cfg hpcc.Config,
	rec *stats.Recorder, onDone func(*stats.FlowRecord)) *hpcc.Sender {
	sm, rm, l := a.lend(net, f)
	sm.took[famHPCC], rm.took[famHPCC] = true, true
	snd, rcv := sm.hpcc.snd.pop(), rm.hpcc.rcv.pop()
	if snd == nil {
		snd = new(hpcc.Sender)
		snd.Board.Share(&sm.hpcc.boards)
	}
	if rcv == nil {
		rcv = new(hpcc.Receiver)
	}
	l.snd, l.rcv = snd, rcv
	hpcc.StartFlowOn(snd, rcv, net.Hosts[f.Src], net.Hosts[f.Dst], f, cfg, rec, onDone)
	return snd
}

// sender returns a finished sender slab, or a new one. Its callback is
// bound once, so re-arming a slab allocates nothing.
func (m *shardMem) sender() *sndSlab {
	m.took[famTCP] = true
	sl := m.snd.pop()
	if sl == nil {
		sl = new(sndSlab)
		sl.doneFn = sl.done
		sl.snd.Board.Share(&m.boards)
	}
	return sl
}

// receiver returns a finished receiver slab, or a new one.
func (m *shardMem) receiver() *rcvSlab {
	m.took[famTCP] = true
	rb := m.rcv.pop()
	if rb == nil {
		rb = new(rcvSlab)
		rb.deliverFn = rb.deliver
	}
	return rb
}

// demuxSlot returns a reaped demux slot, or a new one.
func (m *shardMem) demuxSlot() *rcvSlot {
	m.took[famTCP] = true
	rs := m.slot.pop()
	if rs == nil {
		rs = new(rcvSlot)
	}
	return rs
}
