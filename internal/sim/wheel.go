package sim

import "math/bits"

// The scheduler front end is a hierarchical timing wheel: four levels of
// 256 slots each, with level-0 slots 1 ns wide. An event at absolute time
// at is placed at the lowest level whose slot index differs from the
// cursor's — equivalently, by the highest byte in which at and the cursor
// disagree — so every event within ~4.29 s (2^32 ns) of the cursor lives
// in the wheel and is scheduled and popped in O(1). Events farther out
// wait in Sim.far, a slice in seq order, and move into the wheel when the
// cursor enters their 2^32 ns window. No run in the bench set reaches
// past the span, so far is the dumbest holder that is correct: append,
// linear scan, ordered delete.
//
// Ordering guarantee: a level-0 slot is 1 ns wide, so every event in it
// shares the same timestamp, and slot lists are appended in scheduling
// order (ascending seq). Cascades (re-binning a higher-level slot when
// the cursor enters it) and window entry (enterWindow) walk their list in
// order and append, so they are stable, and the XOR placement rule
// guarantees that two events for the same instant are always in the same
// list while they wait. The firing order is therefore exactly (time, seq)
// — byte-identical to the flat heap this replaced.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelLevels = 4
	slotMask    = wheelSlots - 1
	// wheelSpan is the horizon covered by the wheel relative to the
	// cursor: 2^32 ns. Events in a later 2^32 ns window wait in far.
	wheelSpan = uint64(1) << (wheelBits * wheelLevels)
)

// Event states. Free events are pooled (or, for external events, idle).
// The state lives in the low bits of Event.where; the high bit marks an
// externally owned event (NewKindEvent) that is never returned to the
// node pool.
const (
	evFree uint8 = iota
	evWheel
	evFar
	evRun

	evStateMask uint8 = 0x0f
	evExt       uint8 = 0x80
)

// Event is one schedulable entry: an intrusive doubly-linked node when it
// lives in a wheel slot, a plain element when it waits in Sim.far.
// Events are pooled by the Sim; model code preallocates re-armable events
// with NewKindEvent so timer hot paths allocate nothing.
//
// The payload is either a func() boxed in arg (kindFunc) or a typed
// kind+tgt+arg triple dispatched through the kind table.
type Event struct {
	at  Time
	seq uint64

	next, prev *Event

	arg any

	tgt   uint32
	kind  EventKind
	where uint8 // evExt bit | state
	level uint8
	slot  uint8
}

func (e *Event) state() uint8      { return e.where & evStateMask }
func (e *Event) setState(st uint8) { e.where = e.where&evExt | st }
func (e *Event) isExt() bool       { return e.where&evExt != 0 }

// Scheduled reports whether the event is currently queued to fire.
func (e *Event) Scheduled() bool {
	st := e.where & evStateMask
	return st == evWheel || st == evFar
}

// evList is one wheel slot: a FIFO of events in scheduling (seq) order.
type evList struct{ head, tail *Event }

// --- wheel slot bitmaps ---------------------------------------------------

func (s *Sim) setBit(l, i int) { s.bitmap[l][i>>6] |= 1 << uint(i&63) }

func (s *Sim) clearBit(l, i int) { s.bitmap[l][i>>6] &^= 1 << uint(i&63) }

// nextBit returns the first occupied slot index >= from at level l, or -1.
func (s *Sim) nextBit(l, from int) int {
	w := from >> 6
	word := s.bitmap[l][w] & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= wheelSlots/64 {
			return -1
		}
		word = s.bitmap[l][w]
	}
}

// --- placement ------------------------------------------------------------

// place bins a live event by the highest byte in which its time differs
// from the cursor, or appends it to far when out of the wheel's range.
func (s *Sim) place(ev *Event) {
	d := uint64(ev.at ^ s.wcur)
	var l int
	switch {
	case d < 1<<wheelBits:
		l = 0
	case d < 1<<(2*wheelBits):
		l = 1
	case d < 1<<(3*wheelBits):
		l = 2
	case d < wheelSpan:
		l = 3
	default:
		ev.setState(evFar)
		s.far = append(s.far, ev)
		if n := len(s.far); n > s.Sched.HeapMax {
			s.Sched.HeapMax = n
		}
		return
	}
	slot := int(uint64(ev.at)>>(uint(l)*wheelBits)) & slotMask
	ev.setState(evWheel)
	ev.level, ev.slot = uint8(l), uint8(slot)
	ls := &s.slots[l][slot]
	ev.prev = ls.tail
	ev.next = nil
	if ls.tail != nil {
		ls.tail.next = ev
	} else {
		ls.head = ev
		s.setBit(l, slot)
	}
	ls.tail = ev
	s.wheelCount++
}

// unlink removes a wheel-resident event from its slot list in O(1).
func (s *Sim) unlink(ev *Event) {
	ls := &s.slots[ev.level][ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		ls.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		ls.tail = ev.prev
	}
	if ls.head == nil {
		s.clearBit(int(ev.level), int(ev.slot))
	}
	ev.next, ev.prev = nil, nil
	s.wheelCount--
}

// cascade re-bins every event of a higher-level slot once the cursor has
// entered it. The walk preserves list order, so re-binning is stable.
func (s *Sim) cascade(l, slot int) {
	ls := &s.slots[l][slot]
	ev := ls.head
	if ev == nil {
		return
	}
	ls.head, ls.tail = nil, nil
	s.clearBit(l, slot)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		s.wheelCount--
		s.Sched.Cascades++
		s.place(ev)
		ev = next
	}
}

// peek returns the earliest pending (time), without committing the cursor.
// It never moves wheel state, so Run can stop at a horizon and leave
// everything where later schedules expect it.
func (s *Sim) peek() (Time, bool) {
	if s.wheelCount > 0 {
		cur := uint64(s.wcur)
		if i := s.nextBit(0, int(cur)&slotMask); i >= 0 {
			return Time(cur&^slotMask | uint64(i)), true
		}
		for l := 1; l < wheelLevels; l++ {
			shift := uint(l) * wheelBits
			i := s.nextBit(l, int(cur>>shift)&slotMask)
			if i < 0 {
				continue
			}
			// The slot spans 2^(8l) ns; its list is in seq order, so
			// the first event holding the minimum time is the winner.
			min := s.slots[l][i].head.at
			for ev := s.slots[l][i].head.next; ev != nil; ev = ev.next {
				if ev.at < min {
					min = ev.at
				}
			}
			return min, true
		}
		panic("sim: wheel count out of sync")
	}
	// The wheel is empty: the earliest far event, if any, is next.
	if len(s.far) == 0 {
		return 0, false
	}
	min := s.far[0].at
	for _, ev := range s.far[1:] {
		if ev.at < min {
			min = ev.at
		}
	}
	return min, true
}

// advanceTo commits the cursor to t, the time of the next event to run:
// it pulls far events in when crossing a wheel-span boundary and cascades
// the higher-level slots t lives under. Must only be called with t ≥ wcur
// and t equal to a pending event's time.
func (s *Sim) advanceTo(t Time) {
	d := uint64(t ^ s.wcur)
	s.wcur = t
	if d < 1<<wheelBits {
		return
	}
	if d >= wheelSpan {
		// The wheel is empty (t came from far); enter t's window.
		s.enterWindow()
	}
	if d >= 1<<(3*wheelBits) {
		s.cascade(3, int(uint64(t)>>(3*wheelBits))&slotMask)
	}
	if d >= 1<<(2*wheelBits) {
		s.cascade(2, int(uint64(t)>>(2*wheelBits))&slotMask)
	}
	s.cascade(1, int(uint64(t)>>wheelBits)&slotMask)
}

// enterWindow moves every far event of the cursor's 2^32 ns window into
// the wheel. far is in seq order and placement appends, so the move is
// stable; place sends none of them back to far, because each shares the
// cursor's window.
func (s *Sim) enterWindow() {
	win := uint64(s.wcur) >> (wheelBits * wheelLevels)
	keep := s.far[:0]
	for _, ev := range s.far {
		if uint64(ev.at)>>(wheelBits*wheelLevels) == win {
			s.place(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	clear(s.far[len(keep):])
	s.far = keep
}
