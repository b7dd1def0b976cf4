package sim

import (
	"fmt"
	"sync"
)

// Typed event dispatch. The builtin kind covers the closure convenience
// (Post/At/After store a func() in arg); model packages register
// additional kinds for their hot event classes (wire arrival, Tx
// serialization done, transport ticks) so those fire through a static
// handler shared by every instance instead of a per-object closure. Kind
// values do not participate in the (time, seq) firing order, so
// registration order — package init order — cannot affect determinism.

// EventKind identifies how an event's payload is dispatched.
type EventKind uint8

const (
	// kindFunc dispatches ev.arg.(func())(): the Post/At/After path.
	// Func values are pointer-shaped, so storing one in arg is
	// allocation-free. Kind 0 stays unregistered, so an event carrying a
	// zero EventKind panics in dispatch instead of misfiring.
	kindFunc EventKind = iota + 1
	// kindDyn is the first dynamically registered kind.
	kindDyn
)

var (
	kindMu    sync.Mutex
	kindNext  = int(kindDyn)
	kindTable [256]func(tgt, arg any)
)

// NewKind registers a typed dispatch handler and returns its kind.
// Handlers receive the event's resolved target (nil when the event
// carries no target id) and its arg. Intended to be called from package
// init or other single-setup code; the kind space is 8-bit.
func NewKind(h func(tgt, arg any)) EventKind {
	kindMu.Lock()
	defer kindMu.Unlock()
	if kindNext > 255 {
		panic("sim: event-kind space exhausted")
	}
	k := EventKind(kindNext)
	kindTable[k] = h
	kindNext++
	return k
}

// RegisterTarget interns a long-lived dispatch target (a wire, a port)
// and returns its dense id for PostKind. Target id 0 means "no target";
// the table lives for the lifetime of the Sim, so per-flow objects
// should ride in an event's arg instead of registering.
func (s *Sim) RegisterTarget(obj any) uint32 {
	if len(s.targets) == 0 {
		s.targets = append(s.targets, nil)
	}
	s.targets = append(s.targets, obj)
	return uint32(len(s.targets) - 1)
}

// PostKind schedules a typed event with no cancellation handle and no
// allocation: the kind's handler fires with (target, arg).
func (s *Sim) PostKind(at Time, k EventKind, tgt uint32, arg any) {
	ev := s.alloc()
	ev.kind = k
	ev.tgt = tgt
	ev.arg = arg
	s.schedule(ev, at)
}

// NewKindEvent preallocates a reusable, externally owned typed event for
// Schedule. It is never taken by the node pool and may re-schedule itself
// from its own handler; unlike a registered target, its arg can hold a
// short-lived object (a flow's sender) without pinning it in the Sim's
// target table past the object's life.
func (s *Sim) NewKindEvent(k EventKind, tgt uint32, arg any) *Event {
	return &Event{where: evExt, kind: k, tgt: tgt, arg: arg}
}

// dispatch fires one dynamically registered kind: Run inlines the
// builtin kind and lands here for everything else.
func (s *Sim) dispatch(ev *Event) {
	var tgt any
	if ev.tgt != 0 {
		tgt = s.targets[ev.tgt]
	}
	h := kindTable[ev.kind]
	if h == nil {
		panic(fmt.Sprintf("sim: dispatch of unregistered event kind %d", ev.kind))
	}
	h(tgt, ev.arg)
}
