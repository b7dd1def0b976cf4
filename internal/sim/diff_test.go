package sim

import (
	"math/rand"
	"testing"
)

// This file is a differential property test for the timing-wheel
// scheduler: refSim below is a faithful copy of the seed value-based
// 4-ary heap scheduler this package replaced, and the test drives both
// implementations through identical randomized schedule / cancel / run
// scripts, asserting that every event fires at the same (time, id) and
// in the same total order. Because both implementations stamp sequence
// numbers in schedule-call order, identical (time, id) firing order is
// equivalent to identical (time, seq) firing order — the property the
// byte-identical-reports contract rests on.

// --- reference implementation: the seed 4-ary heap scheduler ---

type refTimerState struct {
	dead  bool
	fired bool
}

type refTimer struct{ ts *refTimerState }

func (t *refTimer) Stop() bool {
	if t == nil || t.ts == nil || t.ts.dead || t.ts.fired {
		return false
	}
	t.ts.dead = true
	return true
}

func (t *refTimer) Pending() bool {
	return t != nil && t.ts != nil && !t.ts.dead && !t.ts.fired
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
	ts  *refTimerState
}

func (e *refEvent) before(o *refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

type refSim struct {
	now  Time
	seq  uint64
	heap []refEvent
}

func (s *refSim) push(ev refEvent) {
	if ev.at < s.now {
		panic("refSim: scheduling in the past")
	}
	ev.seq = s.seq
	s.seq++
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.heap[i].before(&s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *refSim) pop() refEvent {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = refEvent{}
	s.heap = h[:last]
	h = s.heap
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

func (s *refSim) post(at Time, fn func()) {
	s.push(refEvent{at: at, fn: fn})
}

func (s *refSim) at(at Time, fn func()) *refTimer {
	ts := &refTimerState{}
	s.push(refEvent{at: at, fn: fn, ts: ts})
	return &refTimer{ts: ts}
}

func (s *refSim) run(until Time) Time {
	for len(s.heap) > 0 {
		if s.heap[0].at > until {
			break
		}
		ev := s.pop()
		if ev.ts != nil {
			if ev.ts.dead {
				continue
			}
			ev.ts.fired = true
		}
		s.now = ev.at
		ev.fn()
	}
	return s.now
}

// --- differential harness ---

type fireRec struct {
	at Time
	id int
}

// diffScript is one randomized round: a batch of schedules, a batch of
// cancellations, then a bounded run. Deltas mix same-instant collisions,
// near wheel levels, and far-out times past wheelSpan so the overflow
// heap and window promotion are exercised, not just level 0.
func genDelta(r *rand.Rand) Time {
	switch r.Intn(10) {
	case 0, 1, 2:
		return Time(r.Intn(4)) // same-instant pileups
	case 3, 4, 5:
		return Time(r.Intn(1000)) // levels 0–1
	case 6, 7:
		return Time(r.Intn(1 << 20)) // levels 2–3
	case 8:
		return Time(r.Int63n(1 << 30)) // level 3 / near-span
	default:
		return Time(wheelSpan) + Time(r.Int63n(int64(wheelSpan))) // overflow heap
	}
}

func TestDifferentialAgainstSeedHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			ref := &refSim{}
			whl := New()
			var refLog, whlLog []fireRec

			type handlePair struct {
				rt *refTimer
				wt Timer
				id int
			}
			var handles []handlePair
			nextID := 0

			// Handlers log their firing; every fifth id also schedules a
			// deterministic child from inside its own handler, exercising
			// scheduling during Run in both implementations.
			schedule := func(id int, at Time, cancellable bool) {
				var mkRef func(id int) func()
				var mkWhl func(id int) func()
				mkRef = func(id int) func() {
					return func() {
						refLog = append(refLog, fireRec{at: ref.now, id: id})
						if id >= 0 && id%5 == 0 {
							child := 1_000_000 + id
							ref.post(ref.now+Time(id%97), mkRef(-child))
						}
					}
				}
				mkWhl = func(id int) func() {
					return func() {
						whlLog = append(whlLog, fireRec{at: whl.Now(), id: id})
						if id >= 0 && id%5 == 0 {
							child := 1_000_000 + id
							whl.Post(whl.Now()+Time(id%97), mkWhl(-child))
						}
					}
				}
				if cancellable {
					rt := ref.at(at, mkRef(id))
					wt := whl.At(at, mkWhl(id))
					handles = append(handles, handlePair{rt: rt, wt: wt, id: id})
				} else {
					ref.post(at, mkRef(id))
					whl.Post(at, mkWhl(id))
				}
			}

			const rounds = 40
			for round := 0; round < rounds; round++ {
				// Schedule a batch.
				for n := r.Intn(60); n > 0; n-- {
					at := ref.now + genDelta(r)
					schedule(nextID, at, r.Intn(2) == 0)
					nextID++
				}
				// Cancel a random subset; Stop must agree between the two.
				for n := r.Intn(1 + len(handles)/3); n > 0; n-- {
					h := handles[r.Intn(len(handles))]
					if h.rt.Pending() != h.wt.Pending() {
						t.Fatalf("id %d: ref Pending=%v wheel Pending=%v",
							h.id, h.rt.Pending(), h.wt.Pending())
					}
					rs, ws := h.rt.Stop(), h.wt.Stop()
					if rs != ws {
						t.Fatalf("id %d: ref Stop=%v wheel Stop=%v", h.id, rs, ws)
					}
				}
				// Run both to the same horizon, often landing mid-queue.
				until := ref.now + genDelta(r)
				rNow, wNow := ref.run(until), whl.Run(until)
				if rNow != wNow {
					t.Fatalf("round %d: ref now %v, wheel now %v", round, rNow, wNow)
				}
				if whl.Pending() != liveCount(ref) {
					t.Fatalf("round %d: wheel Pending()=%d, reference live count=%d",
						round, whl.Pending(), liveCount(ref))
				}
			}

			// Drain both completely.
			const horizon = Time(1) << 62
			ref.run(horizon)
			whl.Run(horizon)

			if len(refLog) != len(whlLog) {
				t.Fatalf("fired %d events on reference, %d on wheel", len(refLog), len(whlLog))
			}
			for i := range refLog {
				if refLog[i] != whlLog[i] {
					t.Fatalf("firing %d diverges: reference (%v, id %d), wheel (%v, id %d)",
						i, refLog[i].at, refLog[i].id, whlLog[i].at, whlLog[i].id)
				}
			}
			if whl.Pending() != 0 {
				t.Fatalf("wheel reports %d pending after drain", whl.Pending())
			}
		})
	}
}

// --- typed dispatch vs closures ---

// diffTestKind fires through the registered-target table: tgt resolves
// to the test's diffTgt and arg carries the event id, the same shape
// the fabric's wire-arrival events use. Assigned in init because the
// handler's callee schedules through the kind (same knot the transport
// packages untie the same way).
var diffTestKind EventKind

func init() {
	diffTestKind = NewKind(func(tgt, arg any) {
		tgt.(*diffTgt).fire(arg.(int))
	})
}

type diffTgt struct {
	s     *Sim
	log   *[]fireRec
	tgtID uint32
}

func (d *diffTgt) fire(id int) {
	*d.log = append(*d.log, fireRec{at: d.s.Now(), id: id})
	if id >= 0 && id%5 == 0 {
		// Children go through PostKind too, exercising typed scheduling
		// from inside a typed handler mid-Run.
		d.s.PostKind(d.s.Now()+Time(id%97), diffTestKind, d.tgtID, -(1_000_000 + id))
	}
}

// TestTypedDispatchMatchesClosures drives two Sims through identical
// randomized schedule / cancel / run scripts — one entirely through
// closures (Post/At), one entirely through typed events (PostKind,
// NewKindEvent + Schedule) — and asserts every event fires at the
// same (time, id) in the same total order. Each schedule call consumes
// exactly one sequence number on both sides, so identical (time, id)
// logs prove the typed path preserves (time, seq) order, the property
// the byte-identical-reports contract rests on.
func TestTypedDispatchMatchesClosures(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cls := New()
			typ := New()
			var clsLog, typLog []fireRec
			tgt := &diffTgt{s: typ, log: &typLog}
			tgt.tgtID = typ.RegisterTarget(tgt)

			type handlePair struct {
				ct, tt Timer
				id     int
			}
			var handles []handlePair
			nextID := 0

			var mkCls func(id int) func()
			mkCls = func(id int) func() {
				return func() {
					clsLog = append(clsLog, fireRec{at: cls.Now(), id: id})
					if id >= 0 && id%5 == 0 {
						cls.Post(cls.Now()+Time(id%97), mkCls(-(1_000_000 + id)))
					}
				}
			}
			schedule := func(id int, at Time, cancellable bool) {
				if cancellable {
					ct := cls.At(at, mkCls(id))
					tt := typ.Schedule(typ.NewKindEvent(diffTestKind, tgt.tgtID, id), at)
					handles = append(handles, handlePair{ct: ct, tt: tt, id: id})
				} else {
					cls.Post(at, mkCls(id))
					typ.PostKind(at, diffTestKind, tgt.tgtID, id)
				}
			}

			const rounds = 40
			for round := 0; round < rounds; round++ {
				for n := r.Intn(60); n > 0; n-- {
					at := cls.Now() + genDelta(r)
					schedule(nextID, at, r.Intn(2) == 0)
					nextID++
				}
				for n := r.Intn(1 + len(handles)/3); n > 0; n-- {
					h := handles[r.Intn(len(handles))]
					if h.ct.Pending() != h.tt.Pending() {
						t.Fatalf("id %d: closure Pending=%v typed Pending=%v",
							h.id, h.ct.Pending(), h.tt.Pending())
					}
					cs, ts := h.ct.Stop(), h.tt.Stop()
					if cs != ts {
						t.Fatalf("id %d: closure Stop=%v typed Stop=%v", h.id, cs, ts)
					}
				}
				until := cls.Now() + genDelta(r)
				cNow, tNow := cls.Run(until), typ.Run(until)
				if cNow != tNow {
					t.Fatalf("round %d: closure now %v, typed now %v", round, cNow, tNow)
				}
				if cls.Pending() != typ.Pending() {
					t.Fatalf("round %d: closure Pending()=%d, typed Pending()=%d",
						round, cls.Pending(), typ.Pending())
				}
			}

			const horizon = Time(1) << 62
			cls.Run(horizon)
			typ.Run(horizon)

			if len(clsLog) != len(typLog) {
				t.Fatalf("fired %d events on closure sim, %d on typed sim", len(clsLog), len(typLog))
			}
			for i := range clsLog {
				if clsLog[i] != typLog[i] {
					t.Fatalf("firing %d diverges: closure (%v, id %d), typed (%v, id %d)",
						i, clsLog[i].at, clsLog[i].id, typLog[i].at, typLog[i].id)
				}
			}
		})
	}
}

// liveCount recomputes the reference's live (scheduled, non-cancelled)
// event count from its heap, the ground truth Sim.Pending must match.
func liveCount(s *refSim) int {
	n := 0
	for i := range s.heap {
		if s.heap[i].ts == nil || !s.heap[i].ts.dead {
			n++
		}
	}
	return n
}
