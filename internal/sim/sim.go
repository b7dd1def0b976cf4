// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer nanoseconds. Events scheduled for the same
// instant fire in FIFO order of scheduling, which keeps runs fully
// deterministic for a given seed and call sequence.
//
// The scheduler is a hierarchical timing wheel (wheel.go): the hot path
// (packet serialization and propagation events) schedules and pops in
// O(1) from pooled intrusive nodes, which matters when runs process tens
// of millions of events. Timers beyond the wheel's 2^32 ns span wait in a
// plain seq-ordered slice. Cancelled timers are reclaimed at once, so
// dead events never pollute the queue.
package sim

import (
	"fmt"
	"slices"
)

// Time is a simulated point in time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, usable as both instants and spans.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit for logs and test output.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Timer is a cancellable handle to a scheduled event. It is a value: the
// zero Timer is inert, and handles stay safe after the event fires or the
// node is reused because the event's seq acts as a generation counter —
// a handle whose seq no longer matches its node is simply stale.
type Timer struct {
	sim *Sim
	ev  *Event
	seq uint64
}

// Stop cancels the timer. It is safe to call on a zero, already-fired, or
// already-stopped timer. It reports whether the call prevented the event
// from firing. Either way the node is reclaimed at once: a wheel-resident
// timer is unlinked in O(1), a far-future one is cut out of the far slice.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq {
		return false
	}
	s := t.sim
	switch ev.state() {
	case evWheel:
		s.unlink(ev)
	case evFar:
		// Ordered delete: far stays in seq order.
		i := slices.Index(s.far, ev)
		s.far = slices.Delete(s.far, i, i+1)
	default:
		return false
	}
	s.live--
	s.Sched.DeadReclaimed++
	s.release(ev)
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.seq == t.seq && t.ev.Scheduled()
}

// SchedStats exposes scheduler-internal counters for performance
// accounting and regression tracking (surfaced as the benchmark's sim.*
// rows, bench/).
type SchedStats struct {
	// DeadReclaimed counts cancelled events, each reclaimed by its Stop.
	DeadReclaimed uint64
	// Cascades counts events re-binned when the cursor entered their
	// higher-level slot.
	Cascades uint64
	// HeapMax is the high-water mark of the far-future holder: events
	// waiting beyond the wheel's span.
	HeapMax int
}

// Add accumulates o into s (HeapMax takes the maximum), for aggregating
// per-run scheduler counters across a grid.
func (s *SchedStats) Add(o *SchedStats) {
	s.DeadReclaimed += o.DeadReclaimed
	s.Cascades += o.Cascades
	if o.HeapMax > s.HeapMax {
		s.HeapMax = o.HeapMax
	}
}

// Sim is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Sim struct {
	now     Time
	seq     uint64
	stopped bool

	// wcur is the wheel cursor: the time whose wheel slots have been
	// cascaded. It equals the time of the last executed event and never
	// runs ahead of pending work, so horizon-bounded runs leave the
	// wheel consistent for later schedules.
	wcur Time

	slots      [wheelLevels][wheelSlots]evList
	bitmap     [wheelLevels][wheelSlots / 64]uint64
	wheelCount int

	// far holds the events beyond the wheel's span, in seq order.
	far []*Event

	live int // scheduled, non-cancelled events

	free *Event
	// handHead and handTail bound the hand-offs deferred to the next
	// barrier (handOff): pooled nodes in (at, key) order, linked through
	// next/prev, each key riding in seq until flushHandOffs schedules it.
	handHead, handTail *Event
	// chunks lists every node chunk behind the free list and the queue;
	// spare holds adopted chunks not needed yet (see Mem).
	chunks, spare [][]Event

	// targets interns long-lived typed-dispatch targets (RegisterTarget);
	// index 0 is reserved for "no target".
	targets []any

	// Processed counts events executed, for performance accounting.
	Processed uint64
	// Sched exposes scheduler-internal counters.
	Sched SchedStats
}

// New returns an empty simulator positioned at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Mem is the scheduler memory a finished run hands to the next one on
// the same grid worker slot: a shard's event-node chunks and, under a
// Group of more than one shard, its mailbox buffers (a one-shard Group
// defers its hand-offs in pooled nodes, see handOff). Everything in it
// is zeroed. The zero Mem is empty; a Mem is not safe for concurrent use.
type Mem struct {
	chunks    [][]Event
	out, pend []xfer
}

// Adopt moves m's node chunks to s, which draws on them before it
// allocates new ones. Call it once, before s runs.
func (s *Sim) Adopt(m *Mem) {
	s.spare, m.chunks = m.chunks, nil
}

// Release moves the node chunks s has used to m, zeroed: pending and
// deferred events and the references they carry are dropped, so s must
// not be used again.
// Adopted chunks s never needed are dropped, so what a slot keeps follows
// its last run, not the most any run ever used.
func (s *Sim) Release(m *Mem) {
	for _, c := range s.chunks {
		clear(c)
	}
	m.chunks = append(m.chunks, s.chunks...)
	s.chunks, s.spare, s.free = nil, nil, nil
	s.handHead, s.handTail = nil, nil
}

// alloc takes an event node from the pool, growing it a chunk at a time
// so steady-state scheduling allocates nothing.
func (s *Sim) alloc() *Event {
	ev := s.free
	if ev == nil {
		var chunk []Event
		if n := len(s.spare); n > 0 {
			chunk, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			chunk = make([]Event, 128)
		}
		s.chunks = append(s.chunks, chunk)
		for i := 1; i < len(chunk); i++ {
			chunk[i-1].next = &chunk[i]
		}
		ev = &chunk[0]
	}
	s.free = ev.next
	ev.next = nil
	return ev
}

// release returns a finished event to the pool (or just idles an external
// one), clearing captured references so they do not leak past the fire.
// External events keep their payload binding by design (it is their
// owner's, installed once at NewKindEvent); pooled events must drop
// every reference and reset kind/tgt so a recycled node cannot pin app
// objects or dispatch through a stale kind.
func (s *Sim) release(ev *Event) {
	if ev.isExt() {
		ev.setState(evFree)
		return
	}
	ev.where = evFree
	ev.arg = nil
	ev.kind, ev.tgt = 0, 0
	ev.prev = nil
	ev.next = s.free
	s.free = ev
}

// schedule stamps and places a live event. Scheduling in the past panics:
// it indicates a model bug that would silently corrupt causality.
func (s *Sim) schedule(ev *Event, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev.at = at
	ev.seq = s.seq
	s.seq++
	s.live++
	s.place(ev)
}

// handOff defers a typed event to the next flushHandOffs: the node is
// taken from the pool now and linked into the deferred list in (at, key)
// order, the key riding in seq until the node is scheduled. The key must
// be unique among the deferred events at the same instant. Hand-offs
// come nearly in order (equal-delay wires send in time order), so the
// walk back from the tail is O(1) amortised.
func (s *Sim) handOff(at Time, key uint64, k EventKind, tgt uint32, arg any) {
	ev := s.alloc()
	ev.at, ev.seq = at, key
	ev.kind, ev.tgt, ev.arg = k, tgt, arg
	p := s.handTail
	for p != nil && (p.at > at || p.at == at && p.seq > key) {
		p = p.prev
	}
	ev.prev = p
	if p != nil {
		ev.next, p.next = p.next, ev
	} else {
		ev.next, s.handHead = s.handHead, ev
	}
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		s.handTail = ev
	}
}

// flushHandOffs schedules the deferred events in (at, key) order, so
// they take seqs after every event already posted and before any posted
// later: the canonical barrier order of a Group's hand-offs.
func (s *Sim) flushHandOffs() {
	ev := s.handHead
	s.handHead, s.handTail = nil, nil
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		s.schedule(ev, ev.at)
		ev = next
	}
}

// Post schedules fn at absolute time at with no cancellation handle.
// The func value rides in arg (funcs are pointer-shaped, so the boxing
// is allocation-free) and fires through the builtin kindFunc.
func (s *Sim) Post(at Time, fn func()) {
	ev := s.alloc()
	ev.kind = kindFunc
	ev.arg = fn
	s.schedule(ev, at)
}

// At schedules fn to run at the absolute time at and returns a
// cancellable handle.
func (s *Sim) At(at Time, fn func()) Timer {
	ev := s.alloc()
	ev.kind = kindFunc
	ev.arg = fn
	s.schedule(ev, at)
	return Timer{sim: s, ev: ev, seq: ev.seq}
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Schedule queues a preallocated event (NewKindEvent) at absolute time at
// and returns a cancellable handle: the allocation-free counterpart of At
// for callers that re-arm a timer many times. Scheduling an event that is
// already queued panics: an external event represents one slot of pending
// work by design.
func (s *Sim) Schedule(ev *Event, at Time) Timer {
	if ev.Scheduled() {
		panic(fmt.Sprintf("sim: event already scheduled (at %v)", ev.at))
	}
	s.schedule(ev, at)
	return Timer{sim: s, ev: ev, seq: ev.seq}
}

// Cancel takes a preallocated event (NewKindEvent) off the queue, if it
// is on it, the way Stop does for the Timer that Schedule returned. A nil
// event is never queued.
func (s *Sim) Cancel(ev *Event) {
	if ev != nil {
		Timer{s, ev, ev.seq}.Stop()
	}
}

// Stop halts the run loop after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue empties, Stop is called, or the
// event horizon passes until (exclusive). It returns the simulation time
// at exit.
//
// The loop drains one level-0 slot per peek: a level-0 slot is 1 ns
// wide, so every event in it shares the instant t and the slot list is
// already in seq order. Draining the whole chain after a single
// peek/advanceTo amortizes the bitmap scan and cascade checks over the
// batch instead of paying them per event. Same-instant events scheduled
// by a handler append to the tail (with a higher seq) and fire within
// the same batch, so the firing order remains exactly (time, seq).
func (s *Sim) Run(until Time) Time {
	s.stopped = false
	for !s.stopped {
		t, ok := s.peek()
		if !ok || t > until {
			break
		}
		s.advanceTo(t)
		s.now = t
		slot := int(uint64(t)) & slotMask
		ls := &s.slots[0][slot]
		for !s.stopped {
			ev := ls.head
			if ev == nil {
				break
			}
			// Head pop, specialized from unlink: ev is ls.head so its
			// prev is nil and the slot coordinates are already in hand.
			next := ev.next
			ls.head = next
			if next != nil {
				next.prev = nil
			} else {
				ls.tail = nil
				s.clearBit(0, slot)
			}
			ev.next = nil
			s.wheelCount--
			ev.setState(evRun)
			s.live--
			s.Processed++
			if ev.kind == kindFunc {
				ev.arg.(func())()
			} else {
				s.dispatch(ev)
			}
			if ev.state() == evRun {
				// Not re-scheduled by its own handler.
				s.release(ev)
			}
		}
	}
	return s.now
}

// RunAll executes events until the queue drains or Stop is called.
func (s *Sim) RunAll() Time {
	const horizon = Time(1) << 62
	return s.Run(horizon)
}

// Pending returns the number of live (scheduled, non-cancelled) events.
func (s *Sim) Pending() int { return s.live }

// NextTime returns the time of the earliest pending event, if any. It is
// a pure peek: the wheel cursor does not move, so interleaving NextTime
// with horizon-bounded runs is safe. Group uses it to compute the global
// lower bound each synchronization window.
func (s *Sim) NextTime() (Time, bool) { return s.peek() }

// AlignClock advances the clock to t without running anything. Group
// calls it after the last window so every shard reads the same end time
// (paused-clock accounting samples Now after the run). Moving time
// backwards would corrupt causality and panics.
func (s *Sim) AlignClock(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AlignClock to %v before now %v", t, s.now))
	}
	s.now = t
}
