package transport

import (
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// PktState is per-PSN scoreboard state for packet-sequence transports
// (RoCE family: DCQCN+SACK, IRN, HPCC).
type PktState struct {
	Sacked   bool
	Lost     bool
	Retx     bool // retransmission of this lost packet is in flight
	EverSent bool
	resent   bool // sent when it did not extend the board: counted in PktBoard.resent
	LastSent sim.Time
}

// PktBoard is a sender scoreboard over packet sequence numbers 0..N-1
// with selective acknowledgment, duplicate-threshold-1 loss marking, and
// time-based (RACK-style) loss detection for TLT echoes.
//
// It holds state for the PSNs from Una to the highest one sent, not for
// the message: st grows at the top as packets leave and is compacted as
// they are acknowledged, on a backing that doubles when the window
// outgrows it. Calls must not go back in time: now and t never decrease.
type PktBoard struct {
	N   int64 // message length in packets
	Una int64 // first PSN not cumulatively acked
	Nxt int64 // next fresh PSN

	// st[i] is PSN off+i. The entries below Una are dead, the ones from
	// Nxt up (sent before a go-back-N rewind) dormant until sent again.
	st  []PktState
	off int64
	mem *PktBoards // where st comes from and goes back to; nil: the board's own

	sacked   int64 // sacked in [Una, Nxt)
	lost     int64 // lost, unsacked
	lostRetx int64 // subset of lost with retransmission in flight
	resent   int64 // live entries sent out of PSN order: while 0, LastSent rises with PSN
	LostEdge int64 // PSNs below this and unsacked are lost
}

// NewPktBoard returns a board for an n-packet message.
func NewPktBoard(n int64) *PktBoard { return &PktBoard{N: n} }

// Reset empties the board for an n-packet message. Only the backing, or
// the list it comes from, carries over.
func (b *PktBoard) Reset(n int64) {
	b.release()
	*b = PktBoard{N: n, st: b.st[:0], mem: b.mem}
}

// release gives the slots back to the shared list, if there is one: the
// flow is over and only the counters are read from here on.
func (b *PktBoard) release() {
	if b.mem != nil {
		b.mem.Give(b.st)
		b.st = nil
	}
}

// InFlight estimates packets currently in the network.
func (b *PktBoard) InFlight() int64 {
	return (b.Nxt - b.Una) - b.sacked - (b.lost - b.lostRetx)
}

// HasLoss reports whether any lost packet awaits retransmission.
func (b *PktBoard) HasLoss() bool { return b.lost > b.lostRetx }

// PendingRetx returns the number of lost packets awaiting retransmission.
func (b *PktBoard) PendingRetx() int64 { return b.lost - b.lostRetx }

// Complete reports whether everything is cumulatively acked.
func (b *PktBoard) Complete() bool { return b.Una >= b.N }

// State returns the scoreboard entry for psn, Una <= psn < Nxt.
func (b *PktBoard) State(psn int64) PktState {
	s := b.st[psn-b.off]
	s.resent = false
	return s
}

// end is one past the highest PSN the board has an entry for.
func (b *PktBoard) end() int64 { return b.off + int64(len(b.st)) }

// window returns the entries of [Una, Nxt): window()[i] is PSN Una+i.
func (b *PktBoard) window() []PktState {
	if b.Nxt <= b.Una {
		return nil
	}
	return b.st[b.Una-b.off : b.Nxt-b.off]
}

// OnSent records a transmission of psn at time now.
func (b *PktBoard) OnSent(psn int64, isRetx bool, now sim.Time) {
	if psn >= b.Nxt {
		b.Nxt = psn + 1
	}
	if psn < b.Una {
		// Go-back-N overtaken by the ACKs of what it sent before a rewind:
		// it sends below Una until Nxt catches up, and nothing reads that.
		return
	}
	if psn < b.end() {
		if s := &b.st[psn-b.off]; !s.resent {
			s.resent = true
			b.resent++
		}
	} else {
		b.extend(psn)
	}
	s := &b.st[psn-b.off]
	s.EverSent = true
	s.LastSent = now
	if isRetx && s.Lost && !s.Retx {
		s.Retx = true
		b.lostRetx++
	}
}

// extend appends zeroed entries up to and including psn. A full backing
// is compacted if at least half of it is dead — each move is paid for by
// the packets acknowledged since the last — and otherwise traded for one
// twice the size (a short message's first holds it whole), so capacity
// stays within four times the peak window.
func (b *PktBoard) extend(psn int64) {
	for n := int(psn - b.end() + 1); n > 0; n-- {
		if len(b.st) == cap(b.st) {
			if dead := int(b.Una - b.off); dead > 0 && dead*2 >= len(b.st) {
				b.st = b.st[:copy(b.st, b.st[dead:])]
				b.off = b.Una
			} else {
				b.st = b.mem.Grow(b.st, int(min(b.N, 64)))
			}
		}
		b.st = append(b.st, PktState{})
	}
}

// Ack applies a cumulative acknowledgment up to (excluding) cum.
func (b *PktBoard) Ack(cum int64) (progressed bool) {
	if cum <= b.Una {
		return false
	}
	if cum > b.N {
		cum = b.N
	}
	end := b.end()
	leaving := b.st[b.Una-b.off : min(cum, end)-b.off]
	for i := range leaving {
		s := &leaving[i]
		if s.Sacked {
			b.sacked--
		}
		if s.Lost {
			b.lost--
			if s.Retx {
				b.lostRetx--
			}
		}
		if s.resent {
			b.resent--
		}
	}
	b.Una = cum
	if cum >= end {
		b.st, b.off = b.st[:0], cum
	}
	if b.LostEdge < cum {
		b.LostEdge = cum
	}
	return true
}

// Sack applies selective acknowledgment blocks (PSN ranges) and advances
// the dupthresh-1 loss edge.
func (b *PktBoard) Sack(blocks []packet.SackBlock) {
	for _, blk := range blocks {
		lo := max(blk.Start, b.Una)
		hi := min(blk.End, b.Nxt)
		for p := lo; p < hi; p++ {
			s := &b.st[p-b.off]
			if s.Sacked {
				continue
			}
			s.Sacked = true
			b.sacked++
			if s.Lost {
				s.Lost = false
				b.lost--
				if s.Retx {
					s.Retx = false
					b.lostRetx--
				}
			}
		}
		if blk.Start > b.Una && blk.Start > b.LostEdge {
			b.LostEdge = blk.Start
		}
	}
}

// ApplyLostEdge marks unsacked PSNs below LostEdge as lost.
func (b *PktBoard) ApplyLostEdge() (newLoss bool) {
	for p, end := b.Una, min(b.LostEdge, b.end()); p < end; p++ {
		s := &b.st[p-b.off]
		if !s.Sacked && !s.Lost {
			s.Lost = true
			b.lost++
			newLoss = true
		}
	}
	return newLoss
}

// RackMark marks every unsacked PSN last sent strictly before t as lost
// (TLT guaranteed loss detection); stale retransmissions are invalidated
// so they are sent again. While every live entry was sent once and in PSN
// order, send times rise with PSN and the scan ends at the first packet
// sent at or after t — the very first, when ACKs arrive in order. A
// window that holds a retransmission is scanned whole.
func (b *PktBoard) RackMark(t sim.Time) (newLoss bool) {
	inOrder := b.resent == 0
	w := b.window()
	for i := range w {
		s := &w[i]
		if s.EverSent && s.LastSent >= t {
			if inOrder {
				break
			}
			continue
		}
		if s.Sacked || !s.EverSent {
			continue
		}
		if s.Retx {
			s.Retx = false
			b.lostRetx--
		}
		if !s.Lost {
			s.Lost = true
			b.lost++
			newLoss = true
		}
	}
	return newLoss
}

// MarkAllLost collapses the scoreboard on RTO: everything unsacked is
// lost and in-flight retransmissions are invalidated.
func (b *PktBoard) MarkAllLost() {
	b.LostEdge = b.Nxt
	w := b.window()
	for i := range w {
		s := &w[i]
		if s.Retx {
			s.Retx = false
			b.lostRetx--
		}
		if !s.Sacked && !s.Lost {
			s.Lost = true
			b.lost++
		}
	}
}

// Rewind moves the fresh-send pointer back to psn (go-back-N). Only
// meaningful when no selective state is in use (GBN mode never sacks).
func (b *PktBoard) Rewind(psn int64) {
	if psn < b.Una {
		psn = b.Una
	}
	if psn < b.Nxt {
		b.Nxt = psn
	}
}

// NextRetx returns the lowest lost PSN with no retransmission in flight,
// or -1.
func (b *PktBoard) NextRetx() int64 {
	if b.lost <= b.lostRetx {
		return -1
	}
	for i, s := range b.window() {
		if s.Lost && !s.Retx {
			return b.Una + int64(i)
		}
	}
	return -1
}

// FirstUnsacked returns the lowest unsacked outstanding PSN, or -1.
func (b *PktBoard) FirstUnsacked() int64 {
	for i, s := range b.window() {
		if !s.Sacked {
			return b.Una + int64(i)
		}
	}
	return -1
}
