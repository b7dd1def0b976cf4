package transport

import (
	"math/bits"
	"slices"

	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// Entry is one range of a Board: what was sent at once — one PSN, or the
// bytes of one tcp segment.
type Entry[X any] struct {
	first    X        // what the transport keeps of the range's first send
	LastSent sim.Time // when it was last sent
	end      uint32   // one past its last sequence number, modulo 2^32
	flags    uint8
}

// Entry flags.
const (
	eSacked  uint8 = 1 << iota
	eLost          // lost and not sacked
	eRetx          // a retransmission of this lost range is in flight
	eSent          // sent at least once
	eResent        // sent when it did not extend the board: counted in Board.resent
	eSampled       // its delivery sample is taken
)

// Sacked, Lost, Retx and EverSent read the entry's state.
func (e Entry[X]) Sacked() bool   { return e.flags&eSacked != 0 }
func (e Entry[X]) Lost() bool     { return e.flags&eLost != 0 }
func (e Entry[X]) Retx() bool     { return e.flags&eRetx != 0 }
func (e Entry[X]) EverSent() bool { return e.flags&eSent != 0 }

// stamp is what a board keeps of a range's first send: nothing (noStamp),
// or its time, for delivery samples (firstSent).
type stamp[X any] interface {
	firstSend(now sim.Time) X
	sentAt() sim.Time
}

type noStamp struct{}

func (noStamp) firstSend(sim.Time) noStamp { return noStamp{} }
func (noStamp) sentAt() sim.Time           { return 0 }

type firstSent sim.Time

func (firstSent) firstSend(now sim.Time) firstSent { return firstSent(now) }
func (f firstSent) sentAt() sim.Time               { return sim.Time(f) }

type (
	// PktBoard is the RoCE queue pairs' board, over packet sequence
	// numbers: every range is one PSN long.
	PktBoard = Board[noStamp]
	// ByteBoard is tcp's board, over the bytes of its stream: a range is a
	// segment, and the board can sample delivery times.
	ByteBoard = Board[firstSent]

	// PktBoards and ByteBoards are the free lists the boards of one event
	// loop share (Board.Share).
	PktBoards  = Backings[Entry[noStamp]]
	ByteBoards = Backings[Entry[firstSent]]
)

// Board is the loss-recovery scoreboard of every sender in the tree: over
// the contiguous ranges of sequence numbers it has sent, it keeps
// selective acknowledgment, duplicate-threshold-1 loss marking, TLT's
// time-based (RACK-style) loss marking and the counters a window is
// computed from, weighted by range length.
//
// It holds the ranges from Una to the highest one sent, not the message:
// st grows at the top as ranges leave and is compacted as they are
// acknowledged, on a backing that doubles when the window outgrows it.
// Calls must not go back in time: now and t never decrease.
type Board[X stamp[X]] struct {
	N   int64 // length of the sequence space: the message, or what the stream has written so far
	Una int64 // first sequence number not cumulatively acked
	Nxt int64 // next fresh sequence number

	// st[head:] are the live entries: st[i] covers [st[i-1].end,
	// st[i].end), and st[head] holds Una. Ends are kept modulo 2^32 — no
	// window spans that many — so compaction moves entries as they are.
	// The entries below head are dead, the ones from Nxt up (sent before a
	// go-back-N rewind) dormant until sent again.
	st   []Entry[X]
	head int
	mem  *Backings[Entry[X]] // where st comes from and goes back to; nil: the board's own

	sacked   int64 // sacked in [Una, Nxt)
	lost     int64 // lost, unsacked
	lostRetx int64 // subset of lost with retransmission in flight
	LostEdge int64 // unsacked sequence numbers below this are lost, and marked so

	resent    int32 // live entries sent out of order: while 0, LastSent rises with the sequence
	floor     int16 // the smallest backing worth taking, in entries
	keepStale bool  // RackMark leaves retransmissions in flight alone

	clock   *sim.Sim // with samples: delivery times are sampled
	samples *stats.Reservoir
}

// NewPktBoard returns a board for an n-packet message.
func NewPktBoard(n int64) *PktBoard { return &PktBoard{N: n, floor: int16(min(n, 64))} }

// Reset empties the board for a sequence space of n, on backings of at
// least floor (below 1<<15) entries. keepStale is the 1-byte clock's
// RackMark (Fig. 17): the rescue must ride the clock payload alone, so
// retransmissions in flight are never invalidated. Only the backing, or
// the list it comes from, carries over.
func (b *Board[X]) Reset(n int64, floor int, keepStale bool) {
	b.Release()
	*b = Board[X]{N: n, st: b.st[:0], mem: b.mem, floor: int16(floor), keepStale: keepStale}
}

// Share makes the board take its backing from mem for each flow and give
// it back when the flow ends, instead of keeping its own. Call it before
// the board's first flow; mem belongs to the board's event loop.
func (b *Board[X]) Share(mem *Backings[Entry[X]]) { b.mem = mem }

// SampleDeliveries has the board add to r, once per range, the time from
// its first send to its first SACK or its cumulative acknowledgment by
// clock c. Reset stops it.
func (b *Board[X]) SampleDeliveries(c *sim.Sim, r *stats.Reservoir) { b.clock, b.samples = c, r }

// Release gives the backing back to the shared list, if there is one: the
// flow is over and only the counters are read from here on.
func (b *Board[X]) Release() {
	if b.mem != nil {
		b.mem.Give(b.st)
		b.st = nil
	}
}

// Cap returns how many entries the backing holds (tests).
func (b *Board[X]) Cap() int { return cap(b.st) }

// InFlight estimates the sequence numbers currently in the network.
func (b *Board[X]) InFlight() int64 {
	return (b.Nxt - b.Una) - b.sacked - (b.lost - b.lostRetx)
}

// HasLoss reports whether any lost range awaits retransmission.
func (b *Board[X]) HasLoss() bool { return b.lost > b.lostRetx }

// PendingRetx returns the lost sequence numbers awaiting retransmission.
func (b *Board[X]) PendingRetx() int64 { return b.lost - b.lostRetx }

// Lost returns the lost, unsacked sequence numbers, retransmitted or not.
func (b *Board[X]) Lost() int64 { return b.lost }

// Complete reports whether everything is cumulatively acked.
func (b *Board[X]) Complete() bool { return b.Una >= b.N }

// State returns the entry of the range holding seq, Una <= seq < Nxt.
func (b *Board[X]) State(seq int64) Entry[X] { return b.st[b.find(seq)] }

// End returns where the range holding seq ends, Una <= seq < Nxt.
func (b *Board[X]) End(seq int64) int64 { return b.to(b.find(seq)) }

// top is one past the highest sequence number the board has an entry for.
func (b *Board[X]) top() int64 {
	if len(b.st) == 0 {
		return b.Una
	}
	return b.to(len(b.st) - 1)
}

// from and to bound the live part of entry i: a cumulative ACK inside the
// head range (tcp's 1-byte clock probes) cuts its front off.
func (b *Board[X]) from(i int) int64 {
	if i == b.head {
		return b.Una
	}
	return b.to(i - 1)
}

func (b *Board[X]) to(i int) int64 { return b.Una + int64(b.st[i].end-uint32(b.Una)) }

// size is the length of entry i's live part.
func (b *Board[X]) size(i int) int64 { return b.to(i) - b.from(i) }

// find returns the index of the entry holding seq, or -1 if seq is not in
// [Una, top).
func (b *Board[X]) find(seq int64) int {
	if seq < b.Una || seq >= b.top() {
		return -1
	}
	rel, una := uint32(seq-b.Una), uint32(b.Una)
	lo, hi := b.head, len(b.st)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); b.st[mid].end-una <= rel {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// window returns the end of the entries in [Una, Nxt): st[head:window()].
func (b *Board[X]) window() int {
	switch {
	case b.Nxt >= b.top():
		return len(b.st)
	case b.Nxt <= b.Una:
		return b.head
	}
	return b.find(b.Nxt-1) + 1
}

// OnSent records a transmission of the unit range psn at time now.
func (b *Board[X]) OnSent(psn int64, isRetx bool, now sim.Time) { b.Send(psn, psn+1, isRetx, now) }

// Send records a transmission at time now of the range that starts at seq
// and returns where the range ends. A seq the board holds names its range,
// and end is not read; one at or beyond the top opens [seq, end), after
// unsent unit ranges up to seq.
func (b *Board[X]) Send(seq, end int64, isRetx bool, now sim.Time) int64 {
	var i int
	switch {
	case seq >= b.top():
		i = b.extend(seq, end)
	case seq < b.Una:
		// Go-back-N overtaken by the ACKs of what it sent before a rewind:
		// it sends below Una until Nxt catches up, and nothing reads that.
		b.Nxt = max(b.Nxt, end)
		return end
	default:
		i = b.find(seq)
		if e := &b.st[i]; e.flags&eResent == 0 {
			e.flags |= eResent
			b.resent++
		}
	}
	end = b.to(i)
	b.Nxt = max(b.Nxt, end)
	e := &b.st[i]
	if e.flags&eSent == 0 {
		e.flags |= eSent
		e.first = e.first.firstSend(now)
	}
	e.LastSent = now
	if isRetx && e.flags&(eLost|eRetx) == eLost {
		e.flags |= eRetx
		b.lostRetx += b.size(i)
	}
	return end
}

// extend opens [seq, end) at the top, after unit ranges up to seq, and
// returns its index. A full backing is compacted if at least half of it
// is dead — each move is paid for by the ranges acknowledged since the
// last — and otherwise traded for one twice the size (a short message's
// first holds it whole), so capacity stays within four times the peak
// window.
func (b *Board[X]) extend(seq, end int64) int {
	for {
		if len(b.st) == cap(b.st) {
			if dead := b.head; dead > 0 && dead*2 >= len(b.st) {
				b.st, b.head = b.st[:copy(b.st, b.st[dead:])], 0
			} else {
				b.st = b.mem.Grow(b.st, int(b.floor))
			}
		}
		top := b.top()
		if top == seq {
			b.st = append(b.st, Entry[X]{end: uint32(end)})
			return len(b.st) - 1
		}
		b.st = append(b.st, Entry[X]{end: uint32(top + 1)})
	}
}

// Ack applies a cumulative acknowledgment up to (excluding) cum.
func (b *Board[X]) Ack(cum int64) (progressed bool) {
	if cum <= b.Una {
		return false
	}
	cum = min(cum, b.N)
	for ; b.head < len(b.st); b.head++ {
		e := &b.st[b.head]
		end := b.to(b.head)
		b.uncount(e, min(end, cum)-b.Una)
		if end > cum {
			break
		}
		if e.flags&eResent != 0 {
			b.resent--
		}
		b.sample(e)
		b.Una = end
	}
	b.Una = cum
	if b.head == len(b.st) {
		b.st, b.head = b.st[:0], 0
	}
	b.LostEdge = max(b.LostEdge, cum)
	return true
}

// uncount takes n sequence numbers of e out of the counters.
func (b *Board[X]) uncount(e *Entry[X], n int64) {
	if e.flags&eSacked != 0 {
		b.sacked -= n
	}
	if e.flags&eLost != 0 {
		b.lost -= n
		if e.flags&eRetx != 0 {
			b.lostRetx -= n
		}
	}
}

func (b *Board[X]) sample(e *Entry[X]) {
	if b.samples != nil && e.flags&eSampled == 0 {
		e.flags |= eSampled
		b.samples.Add((b.clock.Now() - e.first.sentAt()).Seconds())
	}
}

// Sack applies selective acknowledgment blocks. A block sacks the ranges
// from the one holding its start (or Una) that end within it, and moves
// the dupthresh-1 loss edge up to its start: the unsacked ranges that start
// below are lost. Each range is marked as the edge passes it, so a window
// is scanned once however many ACKs move the edge.
func (b *Board[X]) Sack(blocks []packet.SackBlock) {
	for _, blk := range blocks {
		hi := min(blk.End, b.Nxt)
		for i := b.find(max(blk.Start, b.Una)); i >= 0 && i < len(b.st) && b.to(i) <= hi; i++ {
			b.markSacked(i)
		}
		if blk.Start > b.Una && blk.Start > b.LostEdge {
			i := b.head
			if j := b.find(b.LostEdge); j >= 0 {
				i = j
			}
			for ; i < len(b.st) && b.from(i) < blk.Start; i++ {
				b.markLost(i)
			}
			b.LostEdge = blk.Start
		}
	}
}

func (b *Board[X]) markSacked(i int) {
	e := &b.st[i]
	if e.flags&eSacked != 0 {
		return
	}
	n := b.size(i)
	b.uncount(e, n)
	b.sacked += n
	e.flags = e.flags&^(eLost|eRetx) | eSacked
	b.sample(e)
}

// markLost marks entry i lost unless it is sacked or lost already.
func (b *Board[X]) markLost(i int) bool {
	e := &b.st[i]
	if e.flags&(eSacked|eLost) != 0 {
		return false
	}
	e.flags |= eLost
	b.lost += b.size(i)
	return true
}

// clearRetx invalidates entry i's retransmission in flight, if any.
func (b *Board[X]) clearRetx(i int) {
	if e := &b.st[i]; e.flags&eRetx != 0 {
		e.flags &^= eRetx
		b.lostRetx -= b.size(i)
	}
}

// RackMark marks every unsacked range last sent strictly before t lost
// (TLT's guaranteed loss detection); stale retransmissions are
// invalidated so they are sent again, unless the board keeps them
// (Reset). While every live entry was sent once and in order, send times
// rise with the sequence and the scan ends at the first range sent at or
// after t — the very first, when ACKs arrive in order. A window that holds
// a retransmission is scanned whole.
func (b *Board[X]) RackMark(t sim.Time) (newLoss bool) {
	inOrder := b.resent == 0
	for i, w := b.head, b.window(); i < w; i++ {
		e := &b.st[i]
		sent := e.flags&eSent != 0
		if sent && e.LastSent >= t {
			if inOrder {
				break
			}
			continue
		}
		if !sent || e.flags&eSacked != 0 || (b.keepStale && e.flags&eRetx != 0) {
			continue
		}
		b.clearRetx(i)
		newLoss = b.markLost(i) || newLoss
	}
	return newLoss
}

// MarkAllLost collapses the scoreboard on RTO: everything unsacked is
// lost and in-flight retransmissions are invalidated.
func (b *Board[X]) MarkAllLost() {
	b.LostEdge = b.Nxt
	for i, w := b.head, b.window(); i < w; i++ {
		b.clearRetx(i)
		b.markLost(i)
	}
}

// Rewind moves the fresh-send pointer back to seq (go-back-N). Only
// meaningful when no selective state is in use (GBN mode never sacks).
func (b *Board[X]) Rewind(seq int64) {
	if seq < b.Una {
		seq = b.Una
	}
	if seq < b.Nxt {
		b.Nxt = seq
	}
}

// NextRetx returns the start of the lowest lost range with no
// retransmission in flight, or -1.
func (b *Board[X]) NextRetx() int64 {
	if b.lost <= b.lostRetx {
		return -1
	}
	for i, w := b.head, b.window(); i < w; i++ {
		if b.st[i].flags&(eLost|eRetx) == eLost {
			return b.from(i)
		}
	}
	return -1
}

// FirstUnsacked returns the start of the lowest unsacked outstanding
// range, or -1.
func (b *Board[X]) FirstUnsacked() int64 {
	for i, w := b.head, b.window(); i < w; i++ {
		if b.st[i].flags&eSacked == 0 {
			return b.from(i)
		}
	}
	return -1
}

// LastUnsacked returns the start of the highest unsacked outstanding
// range, or -1.
func (b *Board[X]) LastUnsacked() int64 {
	for i := b.window() - 1; i >= b.head; i-- {
		if b.st[i].flags&eSacked == 0 {
			return b.from(i)
		}
	}
	return -1
}

// Backings is a free list of scoreboard backing arrays, shared by the
// boards of one event loop (PktBoards, ByteBoards). A board takes a
// backing when its flow first transmits, trades it for the next size up
// each time its window outgrows it, and gives it back when the flow ends.
// The arrays a run needs therefore follow its flows in flight, not the
// flows it carries, whatever order mice and elephants come in — and pass,
// like the senders themselves, from one run to the next.
// Capacities are powers of two, one list per power. A backing comes back
// as it was left: T should hold no pointers. The zero value is ready; not
// safe for concurrent use.
type Backings[T any] struct {
	free [32][][]T // free[k]: backings of capacity 1<<k
	low  [32]int   // shortest free[k] has been since the last Trim
}

// Grow returns s on a backing with room for at least one more element
// and at least floor in all: twice the old one, which goes back on its
// list. A nil list grows the way append does.
func (b *Backings[T]) Grow(s []T, floor int) []T {
	if b == nil {
		return slices.Grow(s, max(floor-len(s), 1))
	}
	k := bits.Len(uint(max(2*cap(s), floor) - 1))
	var bigger []T
	if i := len(b.free[k]) - 1; i >= 0 {
		b.low[k] = min(b.low[k], i)
		bigger, b.free[k][i] = b.free[k][i], nil
		b.free[k] = b.free[k][:i]
	} else {
		bigger = make([]T, 0, 1<<k)
	}
	bigger = append(bigger, s...)
	b.Give(s)
	return bigger
}

// Give puts a backing that Grow handed out back on its list.
func (b *Backings[T]) Give(s []T) {
	if s != nil {
		k := bits.Len(uint(cap(s) - 1))
		b.free[k] = append(b.free[k], s[:0])
	}
}

// Trim drops the backings no sender has taken since the last Trim.
func (b *Backings[T]) Trim() {
	for k, free := range b.free {
		n := copy(free, free[b.low[k]:])
		clear(free[n:])
		b.free[k], b.low[k] = free[:n], n
	}
}
