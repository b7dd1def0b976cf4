// Conservative parallel DES: a Group runs N shard simulators in
// lockstep time windows sized by the minimum cross-shard link latency
// (the lookahead). Within a window shards execute independently —
// nothing a shard does before the window closes can affect another
// shard earlier than the lookahead — and cross-shard hand-offs are
// exchanged at window barriers through per-shard outboxes.
//
// Determinism does not depend on the partition: hand-offs are injected
// into the destination shard in a canonical (arrival time, key) order,
// where the key is unique per hand-off (wire id + per-wire sequence).
// Because every hand-off lands in a strictly later window than the one
// that produced it, the injection point — after all of window k's
// events, before any of window k+1's — is the same no matter how many
// shards the model is split across. A single-shard Group therefore
// fires events in exactly the same order as a 4-shard one, and reports
// built on either are byte-identical.
//
// At one shard there is nothing to exchange: SendKind defers each
// hand-off straight into shard 0's pooled nodes, kept in (at, key) order
// (Sim.handOff), and the barrier schedules them in that order
// (Sim.flushHandOffs), so they take the same seqs the mailboxes give.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// xfer is one cross-shard hand-off: a typed event to inject into the
// destination shard at the next window barrier.
type xfer struct {
	at   Time
	key  uint64
	arg  any
	dst  int32
	tgt  uint32
	kind EventKind
}

// Group synchronizes N shard simulators with conservative time windows.
// Model code running inside a window may call SendKind (to hand work to
// another shard), RequestStop, and Stopping; everything else on Group
// is coordinator-only.
type Group struct {
	shards    []*Sim
	lookahead Time
	workers   int

	// Mailboxes, used only with more than one shard.
	out  [][]xfer // per-source outbox, written only by that shard's worker
	pend [][]xfer // per-destination scratch reused across barriers

	// stopReq is set by model code (any shard, mid-window); it is
	// latched into stopLatched only at barriers so every shard observes
	// the stop at the same window boundary regardless of partition.
	stopReq     atomic.Bool
	stopLatched bool
}

// NewGroup returns a Group of n fresh simulators with the given
// lookahead. Every cross-shard hand-off must arrive at least lookahead
// after it is sent; the topology builder derives it from the minimum
// latency of the links it routes through mailboxes.
func NewGroup(n int, lookahead Time) *Group {
	if n < 1 {
		panic(fmt.Sprintf("sim: group of %d shards", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: group lookahead %v must be positive", lookahead))
	}
	g := &Group{
		shards:    make([]*Sim, n),
		lookahead: lookahead,
		workers:   1,
		out:       make([][]xfer, n),
		pend:      make([][]xfer, n),
	}
	for i := range g.shards {
		g.shards[i] = New()
	}
	return g
}

// Adopt gives shard i the scheduler memory a finished run released: node
// chunks to its simulator, buffers to its mailboxes. Call it before the
// group runs.
func (g *Group) Adopt(i int, m *Mem) {
	g.shards[i].Adopt(m)
	g.out[i], g.pend[i] = m.out, m.pend
	m.out, m.pend = nil, nil
}

// Release moves shard i's node chunks and mailbox buffers to m, zeroed;
// undelivered hand-offs are dropped with them. The group must not run
// again.
func (g *Group) Release(i int, m *Mem) {
	g.shards[i].Release(m)
	out, pend := g.out[i][:cap(g.out[i])], g.pend[i][:cap(g.pend[i])]
	clear(out)
	clear(pend)
	m.out, m.pend = out[:0], pend[:0]
	g.out[i], g.pend[i] = nil, nil
}

// Shard returns the i'th shard simulator.
func (g *Group) Shard(i int) *Sim { return g.shards[i] }

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.shards) }

// Lookahead returns the group's synchronization window span.
func (g *Group) Lookahead() Time { return g.lookahead }

// SetWorkers bounds how many OS-level workers execute a window. The
// default 1 runs shards sequentially on the caller's goroutine — the
// fast path when cells already saturate the machine via -procs.
func (g *Group) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// SendKind queues a hand-off from shard src to shard dst: the kind's
// handler fires on dst at absolute time at with (target, arg), where tgt
// was registered on the DESTINATION shard's simulator. The key must be
// unique among all hand-offs at the same instant (wires use
// id<<32 | seq); it fixes the injection order so the destination's event
// sequence is independent of the partition. SendKind may only be called
// from code executing on src.
func (g *Group) SendKind(src, dst int, at Time, key uint64, k EventKind, tgt uint32, arg any) {
	if len(g.shards) == 1 {
		g.shards[0].handOff(at, key, k, tgt, arg)
		return
	}
	g.out[src] = append(g.out[src], xfer{at: at, key: key, kind: k, tgt: tgt, arg: arg, dst: int32(dst)})
}

// RequestStop asks the group to stop at the next window barrier. Safe
// to call from any shard mid-window; the run ends only at a barrier so
// every shard stops at the same boundary.
func (g *Group) RequestStop() { g.stopReq.Store(true) }

// Stopping reports whether the stop request has been latched at a
// barrier. Self-rescheduling model events (samplers) consult it instead
// of the raw request so their reschedule decision is made with
// barrier-consistent state on every shard.
func (g *Group) Stopping() bool { return g.stopLatched }

// Run executes the group until the queues drain, a stop request is
// latched, or the horizon passes. It returns the group end time, to
// which every shard's clock has been aligned.
func (g *Group) Run(horizon Time) Time {
	for {
		g.stopLatched = g.stopReq.Load()
		if g.stopLatched {
			break
		}
		g.inject()
		t0, ok := g.minNext()
		if !ok || t0 > horizon {
			break
		}
		end := t0 + g.lookahead - 1
		if end > horizon {
			end = horizon
		}
		g.runWindow(end)
	}
	var end Time
	for _, s := range g.shards {
		if s.now > end {
			end = s.now
		}
	}
	for _, s := range g.shards {
		s.AlignClock(end)
	}
	return end
}

// inject drains every outbox into the destination shards in canonical
// (at, key) order. Hand-offs always target a strictly later window, so
// injection cannot schedule into a shard's past.
func (g *Group) inject() {
	if len(g.shards) == 1 {
		g.shards[0].flushHandOffs()
		return
	}
	for i := range g.pend {
		g.pend[i] = g.pend[i][:0]
	}
	for si := range g.out {
		ob := g.out[si]
		for j := range ob {
			g.pend[ob[j].dst] = append(g.pend[ob[j].dst], ob[j])
			ob[j].arg = nil // don't pin pooled packets
		}
		g.out[si] = ob[:0]
	}
	for d := range g.pend {
		p := g.pend[d]
		if len(p) == 0 {
			continue
		}
		slices.SortFunc(p, cmpXfer)
		s := g.shards[d]
		for j := range p {
			s.PostKind(p[j].at, p[j].kind, p[j].tgt, p[j].arg)
			p[j].arg = nil
		}
	}
}

// cmpXfer orders hand-offs by (at, key). Keys are unique, so the order
// is total and an unstable sort is deterministic.
func cmpXfer(a, b xfer) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// minNext returns the earliest pending event time across all shards.
func (g *Group) minNext() (Time, bool) {
	var best Time
	ok := false
	for _, s := range g.shards {
		if t, o := s.NextTime(); o && (!ok || t < best) {
			best = t
			ok = true
		}
	}
	return best, ok
}

// runWindow advances every shard to end. With one worker the shards run
// sequentially on the caller's goroutine; otherwise up to g.workers
// goroutines claim shards from a shared counter. Each shard is executed
// by exactly one goroutine per window, and each writes only its own
// outbox, so windows race-free regardless of scheduling.
func (g *Group) runWindow(end Time) {
	if g.workers <= 1 || len(g.shards) == 1 {
		for _, s := range g.shards {
			s.Run(end)
		}
		return
	}
	n := g.workers
	if n > len(g.shards) {
		n = len(g.shards)
	}
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(g.shards) {
				return
			}
			g.shards[i].Run(end)
		}
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
