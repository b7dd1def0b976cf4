package tcp

import (
	"math/bits"
	"slices"
)

// Scoreboards is a free list of scoreboard backing arrays, shared by the
// senders of one event loop. A sender that has one (ShareScoreboards)
// takes a backing when its flow first transmits, trades it for the next
// size up each time its window outgrows it, and gives it back when the
// flow ends. The arrays a run needs therefore follow its flows in flight,
// not the flows it carries, whatever order mice and elephants come in —
// and pass, like the senders themselves, from one run to the next.
// Capacities are powers of two, one list per power. The zero value is
// ready; not safe for concurrent use.
type Scoreboards struct {
	free [32][][]segment // free[k]: backings of capacity 1<<k
	low  [32]int         // shortest free[k] has been since the last Trim
}

// grow returns segs on a backing with room for at least one more segment
// and at least floor in all: twice the old one, which goes back on its
// list. A nil list grows the way append does.
func (b *Scoreboards) grow(segs []segment, floor int) []segment {
	if b == nil {
		return slices.Grow(segs, max(floor-len(segs), 1))
	}
	k := bits.Len(uint(max(2*cap(segs), floor) - 1))
	var bigger []segment
	if i := len(b.free[k]) - 1; i >= 0 {
		b.low[k] = min(b.low[k], i)
		bigger, b.free[k][i] = b.free[k][i], nil
		b.free[k] = b.free[k][:i]
	} else {
		bigger = make([]segment, 0, 1<<k)
	}
	bigger = append(bigger, segs...)
	b.give(segs)
	return bigger
}

// give puts a backing that grow handed out back on its list.
func (b *Scoreboards) give(segs []segment) {
	if segs != nil {
		k := bits.Len(uint(cap(segs) - 1))
		b.free[k] = append(b.free[k], segs[:0])
	}
}

// Trim drops the backings no sender has taken since the last Trim.
func (b *Scoreboards) Trim() {
	for k, free := range b.free {
		n := copy(free, free[b.low[k]:])
		clear(free[n:])
		b.free[k], b.low[k] = free[:n], n
	}
}
