package transport

import (
	"math/bits"
	"slices"
)

// Backings is a free list of scoreboard backing arrays, shared by the
// senders of one event loop (tcp's segments, the RoCE PktBoards). A sender
// takes a backing when its flow first transmits, trades it for the next
// size up each time its window outgrows it, and gives it back when the
// flow ends. The arrays a run needs therefore follow its flows in flight,
// not the flows it carries, whatever order mice and elephants come in —
// and pass, like the senders themselves, from one run to the next.
// Capacities are powers of two, one list per power. A backing comes back
// as it was left: T should hold no pointers. The zero value is ready; not
// safe for concurrent use.
type Backings[T any] struct {
	free [32][][]T // free[k]: backings of capacity 1<<k
	low  [32]int   // shortest free[k] has been since the last Trim
}

// PktBoards is the free list PktBoards of one event loop share.
type PktBoards = Backings[PktState]

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
