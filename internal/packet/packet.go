// Package packet defines the on-wire unit exchanged by hosts and switches.
//
// A single Packet struct covers every protocol in the repository: TCP-family
// byte-stream segments, RoCE-family PSN-numbered messages, and the control
// plane (ACK, NACK, CNP, PFC PAUSE/RESUME). Switches only inspect the
// fields a commodity chip could see: size, priority, color (derived from a
// DSCP-like mark), and ECN bits.
package packet

import (
	"slices"

	"tlt/internal/sim"
)

// FlowID uniquely identifies a flow (connection) in a run.
type FlowID uint64

// NodeID identifies a host or switch in the topology.
type NodeID int32

// Type enumerates packet kinds.
type Type uint8

// Packet types.
const (
	Data   Type = iota // payload-carrying segment
	Ack                // cumulative/selective acknowledgment (TCP family, IRN)
	Nack               // RoCE out-of-order notification (expected PSN)
	Cnp                // DCQCN congestion notification packet
	Pause              // PFC XOFF for a priority
	Resume             // PFC XON for a priority
)

// String returns a short human-readable name.
func (t Type) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case Cnp:
		return "CNP"
	case Pause:
		return "PAUSE"
	case Resume:
		return "RESUME"
	}
	return "?"
}

// Color is the switch-visible drop class, assigned at the host from the
// TLT mark (via a DSCP-to-color ACL, as on Broadcom chips). Green packets
// ("important") may occupy the queue up to the dynamic threshold; red
// packets ("unimportant") are dropped beyond the color-aware threshold.
type Color uint8

// Colors.
const (
	Green Color = iota // important: protected
	Red                // unimportant: subject to color-aware dropping
)

// Mark is the TLT transport-layer message tag (paper §5, Appendix A).
type Mark uint8

// TLT marks. Everything except Unimportant maps to Green on the wire.
const (
	Unimportant        Mark = iota
	ImportantData           // important payload packet
	ImportantEcho           // ACK acknowledging an ImportantData
	ImportantClockData      // payload injected by important ACK-clocking
	ImportantClockEcho      // ACK for ImportantClockData (filtered at TLT layer)
	ControlImportant        // pure control (ACK/NACK/CNP): always important
)

// Color returns the wire color for the mark.
func (m Mark) Color() Color {
	if m == Unimportant {
		return Red
	}
	return Green
}

// String returns a short mark name for traces.
func (m Mark) String() string {
	switch m {
	case Unimportant:
		return "uimp"
	case ImportantData:
		return "IMP-D"
	case ImportantEcho:
		return "IMP-E"
	case ImportantClockData:
		return "IMPC-D"
	case ImportantClockEcho:
		return "IMPC-E"
	case ControlImportant:
		return "IMP-CTL"
	}
	return "?"
}

// SackBlock is a half-open received byte range [Start, End) reported by a
// selective acknowledgment.
type SackBlock struct {
	Start, End int64
}

// INTHop carries in-band network telemetry appended by each switch hop,
// used by HPCC.
type INTHop struct {
	QueueBytes int64    // egress queue depth at transmit time
	TxBytes    int64    // cumulative bytes transmitted by the egress port
	Timestamp  sim.Time // when the packet left the port
	RateBps    int64    // port line rate
}

// MaxINTHops is the inline telemetry capacity of a packet. Leaf-spine
// paths traverse at most three switches (ToR→spine→ToR), so five inline
// slots cover every topology in the repository with headroom; deeper
// fabrics spill to a heap-allocated overflow slice (counted by the
// switch so the fallback never hides silently).
const MaxINTHops = 5

// HeaderBytes is the modeled per-packet overhead (Ethernet+IP+TCP-ish).
const HeaderBytes = 48

// Packet is the unit moved through the fabric. Packets are passed by
// pointer and owned by the receiver once delivered.
type Packet struct {
	Flow     FlowID
	Src, Dst NodeID

	Type Type
	Mark Mark

	// TC is the traffic class (egress queue) on multi-queue switch
	// ports; class 0 is the TLT class in incremental deployments (§5.3).
	TC uint8

	// intN is the inline INT hop count, or intSpilled once the stack
	// overflowed into intOv. It lives up here, packed with the other
	// byte-wide fields, so WireSize resolves the common no-spill case
	// from the packet's first cache line without touching intOv.
	intN uint8

	// Seq/Len: for TCP-family Data, the byte offset and payload length.
	// For RoCE-family Data, Seq is the PSN and Len the payload bytes.
	Seq int64
	Len int

	// Ack: cumulative acknowledgment (TCP: next expected byte; RoCE
	// SACK/IRN: next expected PSN). For Nack, the expected PSN.
	Ack  int64
	Sack []SackBlock
	// sackBuf is the backing a packet keeps for its SACK blocks from one
	// use to the next (SackBuf); Pool.Put empties it.
	sackBuf *[SackBufBlocks]SackBlock

	// ECN state.
	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by switches)
	ECE bool // echo of CE back to the sender (in ACKs)

	// CnpFlow: for Cnp packets, which flow to throttle (RoCE).
	// PFC fields: PausePrio/PauseOn for Pause/Resume.
	PausePrio int

	// Echoed timestamp for RTT sampling: receiver copies SentAt of the
	// packet that triggered this ACK.
	SentAt  sim.Time
	EchoTS  sim.Time
	IsRetx  bool // retransmission (diagnostics)
	LastPkt bool // RoCE: last packet of the message

	// EnqIngress records the switch ingress port while buffered, for
	// per-ingress PFC accounting. Internal to fabric.
	EnqIngress int

	// INT telemetry (HPCC). Appended per hop on Data, echoed on Ack.
	// The hot path stores hops in the fixed inline array (no heap
	// traffic); paths deeper than MaxINTHops spill to intOv (and intN,
	// declared near the top of the struct, becomes intSpilled). Access
	// goes through AppendINT/INTHops/CopyINTFrom so the representation
	// stays private. The bulky hop array sits last so the
	// frequently-read header fields stay within the struct's first two
	// cache lines.
	intOv   []INTHop
	intHops [MaxINTHops]INTHop
}

// SackBufBlocks is the capacity of the SACK backing a packet keeps: the
// most blocks any receiver in the repository reports.
const SackBufBlocks = 8

// SackBuf returns an empty slice on the packet's own SACK backing, for
// the receiver filling p.Sack to append to. The backing stays with the
// packet through its Pool, so an ACK on a recycled packet allocates
// nothing; whoever keeps a packet past its Put copies the blocks
// (Snapshot).
func (p *Packet) SackBuf() []SackBlock {
	if p.sackBuf == nil {
		p.sackBuf = new([SackBufBlocks]SackBlock)
	}
	return p.sackBuf[:0]
}

// Snapshot returns a copy of p that stays valid after p is recycled.
func (p *Packet) Snapshot() Packet {
	c := *p
	c.Sack, c.sackBuf = slices.Clone(p.Sack), nil
	return c
}

// intSpilled in intN marks a packet whose INT stack overflowed the
// inline array; the authoritative hop list is then intOv.
const intSpilled = MaxINTHops + 1

// AppendINT records one telemetry hop, reporting whether the packet had
// to spill to the heap-allocated overflow slice (path deeper than
// MaxINTHops).
func (p *Packet) AppendINT(h INTHop) (spilled bool) {
	if p.intN < MaxINTHops {
		p.intHops[p.intN] = h
		p.intN++
		return false
	}
	if p.intN == MaxINTHops {
		p.intOv = append(make([]INTHop, 0, 2*MaxINTHops), p.intHops[:]...)
		p.intN = intSpilled
	}
	p.intOv = append(p.intOv, h)
	return true
}

// NumINT returns the number of telemetry hops carried.
func (p *Packet) NumINT() int {
	if p.intN <= MaxINTHops {
		return int(p.intN)
	}
	return len(p.intOv)
}

// INTHops returns the telemetry hops in path order. The returned slice
// aliases packet-internal storage: handlers copy what they keep, exactly
// as with the packet itself.
func (p *Packet) INTHops() []INTHop {
	if p.intN <= MaxINTHops {
		return p.intHops[:p.intN]
	}
	return p.intOv
}

// CopyINTFrom copies src's telemetry into p (an ACK echoing the data
// packet's INT stack). Inline hops copy by value — only the occupied
// slots, so an INT-free echo costs nothing; only a spilled source forces
// a fresh overflow allocation. Either way the echo path stays safe under
// packet recycling without sharing backing arrays.
func (p *Packet) CopyINTFrom(src *Packet) {
	if src.intN > MaxINTHops {
		p.intOv = append(p.intOv[:0], src.intOv...)
		p.intN = intSpilled
		return
	}
	for i := 0; i < int(src.intN); i++ {
		p.intHops[i] = src.intHops[i]
	}
	p.intN = src.intN
	p.intOv = nil
}

// WireSize returns the packet's size on the wire in bytes.
func (p *Packet) WireSize() int {
	n := p.Len + HeaderBytes
	// INT metadata occupies real header space (HPCC: ~8B per hop).
	n += 8 * p.NumINT()
	return n
}

// IsControl reports whether the packet is a pure control packet (no
// payload): ACK/NACK/CNP/PFC. TLT always marks these important.
func (p *Packet) IsControl() bool {
	return p.Type != Data
}

// Important reports whether the packet travels as green (protected).
func (p *Packet) Important() bool { return p.Mark.Color() == Green }
