// Package trace provides packet-level tracing for debugging transport
// behaviour: attach a Tracer to hosts and it records (or streams) every
// send and receive in a compact text format, similar to tcpdump output
// for the simulated wire.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// Event is one observed packet movement.
type Event struct {
	At   sim.Time
	Host packet.NodeID
	Dir  string // "tx" or "rx"
	Pkt  packet.Packet
}

// String renders an event on one line.
func (e Event) String() string {
	p := e.Pkt
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s host%-3d %s %s flow=%d", e.At, e.Host, e.Dir, p.Type, p.Flow)
	switch p.Type {
	case packet.Data:
		fmt.Fprintf(&b, " seq=%d len=%d", p.Seq, p.Len)
		if p.IsRetx {
			b.WriteString(" retx")
		}
	case packet.Ack:
		fmt.Fprintf(&b, " ack=%d", p.Ack)
		for _, s := range p.Sack() {
			fmt.Fprintf(&b, " sack=%d-%d", s.Start, s.End)
		}
		if p.ECE {
			b.WriteString(" ece")
		}
	case packet.Nack:
		fmt.Fprintf(&b, " expect=%d", p.Ack)
	}
	if p.Mark != packet.Unimportant {
		fmt.Fprintf(&b, " [%s]", p.Mark)
	}
	if p.CE {
		b.WriteString(" ce")
	}
	return b.String()
}

// Tracer collects events from any number of hosts. A zero capacity keeps
// everything; otherwise it keeps the most recent capacity events (ring).
//
// There is no package-level state: each Tracer instance guards its ring
// (and optional stream writer) with its own mutex, so independent
// concurrent simulations — e.g. grid cells run by experiments.RunGrid —
// can each use their own Tracer, or even share one, without data races.
// Interleaving across sims sharing a Tracer is scheduling-dependent, so
// deterministic traces need one Tracer per sim. FlowFilter is read
// without the lock: set it before the run starts, not while tracing.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	events []Event
	start  int
	w      io.Writer // optional live stream

	// FlowFilter, when non-zero, restricts recording to one flow.
	FlowFilter packet.FlowID
}

// New returns a tracer retaining at most capacity events (0 = unbounded).
func New(capacity int) *Tracer {
	return &Tracer{cap: capacity}
}

// Stream makes the tracer also write each event line to w as it happens.
func (t *Tracer) Stream(w io.Writer) *Tracer {
	t.w = w
	return t
}

// Attach hooks the tracer onto a host. Call before the run starts.
func (t *Tracer) Attach(h *fabric.Host) {
	id := h.ID()
	h.Trace = func(now sim.Time, dir string, pkt *packet.Packet) {
		t.record(Event{At: now, Host: id, Dir: dir, Pkt: pkt.Snapshot()})
	}
}

// AttachAll hooks the tracer onto all the given hosts.
func (t *Tracer) AttachAll(hosts []*fabric.Host) {
	for _, h := range hosts {
		t.Attach(h)
	}
}

func (t *Tracer) record(e Event) {
	if t.FlowFilter != 0 && e.Pkt.Flow != t.FlowFilter {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		fmt.Fprintln(t.w, e.String())
	}
	if t.cap > 0 && len(t.events) == t.cap {
		t.events[t.start] = e
		t.start = (t.start + 1) % t.cap
		return
	}
	t.events = append(t.events, e)
}

// Events returns the recorded events in order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dump writes all retained events to w.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e.String())
	}
}
