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
)

// An arena is the memory a grid worker slot carries from one cell to the
// next. A figure is hundreds of cells on the same fabric, and each cell's
// warm-up — packets and their extensions, event nodes, NIC and switch
// queues, demux tables, each transport family's endpoints and their
// scoreboards — grows to much the same size, so a slot pays that growth
// once instead of once per cell. The arena is the slot's token in
// RunGrid's semaphore: holding it is both the right to run and the memory
// to run in, and it changes goroutines only through that channel. A cell
// run outside a grid gets a private arena (RunConfig.arena), so every
// driver has the one code path.
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
}

// shardMem is the part of an arena that belongs to one shard of the
// running cell. Between the barriers of a sharded run only the goroutine
// driving that shard touches it.
type shardMem struct {
	sched  sim.Mem      // event-node chunks, mailbox buffers
	pkts   packet.Stock // free packets and their extensions, zeroed
	fabric fabric.Mem   // host and switch-queue buffers

	// Each transport family's endpoints (lend): the RoCE laws keep a list
	// each, boards included, as an hpcc window is not a dcqcn one.
	tcp   endpoints[sndSlab, rcvSlab, transport.ByteBoards, *sndSlab, *rcvSlab, *transport.ByteBoards]
	dcqcn endpoints[dcqcn.Sender, dcqcn.Receiver, transport.PktBoards, *dcqcn.Sender, *dcqcn.Receiver, *transport.PktBoards]
	hpcc  endpoints[hpcc.Sender, hpcc.Receiver, transport.PktBoards, *hpcc.Sender, *hpcc.Receiver, *transport.PktBoards]
	slot  freeList[rcvSlot] // the streaming runner's reaped demux slots, tcp's
}

func (m *shardMem) families() [3]family { return [3]family{&m.tcp, &m.dcqcn, &m.hpcc} }

// endpoints is one transport family's share of a shardMem: its finished
// senders and receivers, the scoreboard backings its senders share while
// they run (a scoreboard belongs to a flow in flight, not to an
// endpoint), and the flows this shard's senders are on loan to. The
// materialized drivers take at set-up and return at release; the
// streaming runner pushes and pops tcp's slabs while it runs.
type endpoints[S, R, B any, PS sender[S, B], PR receiver[R], PB boardList[B]] struct {
	snd    freeList[S]
	rcv    freeList[R]
	boards B
	lent   []loan[S, R]
	took   bool // the running cell has taken from the lists: only then are they trimmed
}

// sender and receiver are what an endpoint list needs of its endpoints:
// a family's, or the streaming runner's slabs around tcp's; boardList is
// what it needs of the boards.
type (
	sender[S, B any] interface {
		*S
		ShareBoards(*B)
		Done() bool
		Aborted() bool
		Clear()
	}
	receiver[R any] interface {
		*R
		Clear()
	}
	boardList[B any] interface {
		*B
		Trim()
	}
)

// loan is one flow's endpoints, and the list on the receiver's shard the
// receiver goes back to.
type loan[S, R any] struct {
	snd  *S
	rcv  *R
	home *freeList[R]
}

// family is what attach and release do with each family's endpoints.
type family interface {
	open()
	settle()
	trim(idle bool)
	park()
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
		for _, f := range m.families() {
			f.open()
		}
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
	for _, m := range a.shards {
		for _, f := range m.families() {
			f.settle()
		}
	}
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
	a.trimEndpoints(true)
	for _, m := range a.shards {
		for _, f := range m.families() {
			f.park()
		}
		for _, rs := range m.slot.free {
			*rs = rcvSlot{}
		}
	}
}

// trimEndpoints drops the endpoints and demux slots no flow has taken
// since the last trim and, when idle (no sender is on loan), the
// scoreboards. release ends with it; Run also calls it once its flows are
// set up, so a small cell does not sit on a larger one's endpoints for
// its whole run. The lists of a family the cell has taken nothing from —
// tcp's under a RoCE cell, dcqcn's under an hpcc cell — stay as they are:
// the next cell of that family would only grow them again.
func (a *arena) trimEndpoints(idle bool) {
	for _, m := range a.shards {
		if m.tcp.took {
			m.slot.trim()
		}
		for _, f := range m.families() {
			f.trim(idle)
		}
	}
}

func (e *endpoints[S, R, B, PS, PR, PB]) open() {
	clear(e.lent) // a cell that panicked never released
	e.lent, e.took = e.lent[:0], false
}

// settle takes back the endpoints on loan whose flow completed: an
// unfinished or aborted flow's state is dropped with the network.
func (e *endpoints[S, R, B, PS, PR, PB]) settle() {
	for _, l := range e.lent {
		if s := PS(l.snd); s.Done() && !s.Aborted() {
			e.snd.push(l.snd)
			l.home.push(l.rcv)
		}
	}
	clear(e.lent)
	e.lent = e.lent[:0]
}

func (e *endpoints[S, R, B, PS, PR, PB]) trim(idle bool) {
	if e.took {
		e.snd.trim()
		e.rcv.trim()
		if idle {
			PB(&e.boards).Trim()
		}
	}
}

// park clears every parked endpoint of what the cell it served left.
func (e *endpoints[S, R, B, PS, PR, PB]) park() {
	for _, s := range e.snd.free {
		PS(s).Clear()
	}
	for _, r := range e.rcv.free {
		PR(r).Clear()
	}
}

// sender and receiver return a finished endpoint, or a new one — a
// sender on the list's boards.
func (e *endpoints[S, R, B, PS, PR, PB]) sender() PS {
	e.took = true
	s := PS(e.snd.pop())
	if s == nil {
		s = new(S)
		s.ShareBoards(&e.boards)
	}
	return s
}

func (e *endpoints[S, R, B, PS, PR, PB]) receiver() PR {
	e.took = true
	if r := e.rcv.pop(); r != nil {
		return r
	}
	return new(R)
}

// mem returns the memory of the shards f's sender and receiver live on;
// f.Src and f.Dst index net.Hosts.
func (a *arena) mem(net *topo.Network, f *transport.Flow) (sm, rm *shardMem) {
	return a.shards[shardOf(net.HostShard, int(f.Src))], a.shards[shardOf(net.HostShard, int(f.Dst))]
}

// lend is transport.Start on the slot's recycled endpoints of one family:
// the sender from sm, the source host's shard, the receiver from rm, the
// destination's. Release takes them back.
func lend[S, R, B, C any, PS interface {
	sender[S, B]
	transport.Endpoint[C]
	transport.StatusReporter
	Launch()
}, PR interface {
	receiver[R]
	transport.Endpoint[C]
}, PB boardList[B]](sm, rm *endpoints[S, R, B, PS, PR, PB], net *topo.Network, f *transport.Flow, cfg C,
	rec *stats.Recorder, onDone func(*stats.FlowRecord)) PS {
	snd, rcv := sm.sender(), rm.receiver()
	sm.lent = append(sm.lent, loan[S, R]{snd, rcv, &rm.rcv})
	transport.Start(snd, rcv, net.Hosts[f.Src], net.Hosts[f.Dst], f, cfg, rec, onDone)
	return snd
}
