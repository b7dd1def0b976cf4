// Package packet defines the on-wire unit exchanged by hosts and switches.
//
// A single Packet struct covers every protocol in the repository: TCP-family
// byte-stream segments, RoCE-family PSN-numbered messages, and the control
// plane (ACK, NACK, CNP, PFC PAUSE/RESUME). Switches only inspect the
// fields a commodity chip could see: size, priority, color (derived from a
// DSCP-like mark), and ECN bits. Those and the transport's sequence
// fields are the packet's 80-byte header; SACK blocks and HPCC's INT
// stack, which few packets carry, are extensions it takes from its Pool.
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

// MaxINTHops is the inline capacity of a packet's INT extension.
// Leaf-spine paths traverse at most three switches (ToR→spine→ToR), so
// five slots cover every topology in the repository with headroom; deeper
// fabrics spill to a heap-allocated overflow slice (counted by the switch
// so the fallback never hides silently).
const MaxINTHops = 5

// HeaderBytes is the modeled per-packet overhead (Ethernet+IP+TCP-ish).
const HeaderBytes = 48

// Packet is the unit moved through the fabric. Packets are passed by
// pointer and owned by the receiver once delivered.
//
// The struct is the header: 80 bytes, with every field a switch or a
// transport reads on a plain data packet or ACK in the first 64
// (TestPacketHeader). SACK blocks and the INT stack are extensions a
// packet takes from its Pool the first time it needs one and gives back at
// Put; Snapshot copies them.
type Packet struct {
	Flow     FlowID
	Src, Dst NodeID

	Type Type
	Mark Mark

	// TC is the traffic class (egress queue) on multi-queue switch
	// ports; class 0 is the TLT class in incremental deployments (§5.3).
	TC uint8

	// ECN state.
	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by switches)
	ECE bool // echo of CE back to the sender (in ACKs)

	IsRetx  bool // retransmission (diagnostics)
	LastPkt bool // RoCE: last packet of the message

	// Seq/Len: for TCP-family Data, the byte offset and payload length.
	// For RoCE-family Data, Seq is the PSN and Len the payload bytes.
	Seq int64
	Len int

	// Ack: cumulative acknowledgment (TCP: next expected byte; RoCE
	// SACK/IRN: next expected PSN). For Nack, the expected PSN.
	Ack int64

	// Echoed timestamp for RTT sampling: receiver copies SentAt of the
	// packet that triggered this ACK.
	SentAt sim.Time
	EchoTS sim.Time

	sack *sackExt // nil until SackBuf
	hops *intExt  // nil until AppendINT or CopyINTFrom
}

// SackBufBlocks is the capacity of a SACK extension: the most blocks any
// receiver in the repository reports.
const SackBufBlocks = 8

// sackExt is a packet's SACK extension: its blocks are blocks[:n].
type sackExt struct {
	blocks [SackBufBlocks]SackBlock
	n      int64 // the field audit mode stamps, like a packet's Seq
}

// intExt is a packet's INT extension: its hops are hops[:n] in path
// order, or ov once the stack overflowed the inline array.
type intExt struct {
	hops [MaxINTHops]INTHop
	n    int64 // the field audit mode stamps
	ov   []INTHop
}

// SackBuf returns an empty slice on the packet's SACK extension, taken
// from pool on first use, for a receiver to append its blocks to and pass
// to SetSack: an ACK on a recycled packet allocates nothing.
func (p *Packet) SackBuf(pool *Pool) []SackBlock {
	if p.sack == nil {
		p.sack = pool.sackExt()
	}
	return p.sack.blocks[:0]
}

// SetSack makes blocks, appended to the slice SackBuf returned, the
// packet's SACK blocks.
func (p *Packet) SetSack(blocks []SackBlock) {
	p.sack.n = int64(copy(p.sack.blocks[:], blocks))
}

// Sack returns the packet's SACK blocks. The slice aliases the extension,
// which goes back to the pool with the packet: whoever keeps the blocks
// past Handle copies them (Snapshot).
func (p *Packet) Sack() []SackBlock {
	if p.sack == nil {
		return nil
	}
	return p.sack.blocks[:p.sack.n]
}

// Snapshot returns a copy of p that stays valid after p is recycled: the
// header by value and extensions of its own, which no pool knows of.
func (p *Packet) Snapshot() Packet {
	c := *p
	c.sack, c.hops = nil, nil
	if p.sack != nil {
		c.SetSack(append(c.SackBuf(nil), p.Sack()...))
	}
	c.CopyINTFrom(nil, p)
	return c
}

// AppendINT records one telemetry hop on the packet's INT extension, taken
// from pool on first use, reporting whether the stack had to spill to the
// heap-allocated overflow slice (path deeper than MaxINTHops).
func (p *Packet) AppendINT(pool *Pool, h INTHop) (spilled bool) {
	x := p.hops
	if x == nil {
		x = pool.intExt()
		p.hops = x
	}
	if x.n < MaxINTHops {
		x.hops[x.n] = h
		x.n++
		return false
	}
	if x.ov == nil {
		x.ov = append(make([]INTHop, 0, 2*MaxINTHops), x.hops[:]...)
	}
	x.ov = append(x.ov, h)
	return true
}

// NumINT returns the number of telemetry hops carried.
func (p *Packet) NumINT() int { return len(p.INTHops()) }

// INTHops returns the telemetry hops in path order. The returned slice
// aliases the packet's extension: handlers copy what they keep, exactly
// as with the packet itself.
func (p *Packet) INTHops() []INTHop {
	switch x := p.hops; {
	case x == nil:
		return nil
	case x.ov != nil:
		return x.ov
	default:
		return x.hops[:x.n]
	}
}

// CopyINTFrom gives p, which carries no telemetry yet, a copy of src's (an
// ACK echoing the data packet's INT stack) on an extension of its own
// taken from pool — never src's, which goes back to the pool with src. An
// INT-free source costs nothing; only a spilled one allocates.
func (p *Packet) CopyINTFrom(pool *Pool, src *Packet) {
	if s := src.hops; s != nil {
		p.hops = pool.intExt()
		*p.hops = intExt{hops: s.hops, n: s.n, ov: slices.Clone(s.ov)}
	}
}

// WireSize returns the packet's size on the wire in bytes.
func (p *Packet) WireSize() int {
	// INT metadata occupies real header space (HPCC: ~8B per hop).
	return p.Len + HeaderBytes + 8*p.NumINT()
}

// IsControl reports whether the packet is a pure control packet (no
// payload): ACK/NACK/CNP/PFC. TLT always marks these important.
func (p *Packet) IsControl() bool { return p.Type != Data }

// Important reports whether the packet travels as green (protected).
func (p *Packet) Important() bool { return p.Mark.Color() == Green }
