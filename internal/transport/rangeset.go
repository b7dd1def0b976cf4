// Package transport holds machinery shared by every transport protocol in
// the repository: interval bookkeeping for SACK scoreboards and receive
// buffers, the Linux-style RTO estimator, and flow metadata.
package transport

import "tlt/internal/packet"

// RangeSet maintains a sorted set of disjoint half-open int64 intervals
// [start, end). It backs both receiver reassembly state (received byte or
// PSN ranges) and sender SACK scoreboards.
//
// The zero value is an empty set.
type RangeSet struct {
	r []packet.SackBlock
}

// Len returns the number of disjoint intervals.
func (s *RangeSet) Len() int { return len(s.r) }

// Empty reports whether the set covers nothing.
func (s *RangeSet) Empty() bool { return len(s.r) == 0 }

// maxKeptBlocks bounds the backing array Reset keeps: a set that spilled
// past it (a badly reordered flow) hands the array back to the collector
// instead of carrying it into every later use of a recycled endpoint.
const maxKeptBlocks = 32

// Reset removes all intervals, keeping the backing array for reuse unless
// it grew past maxKeptBlocks.
func (s *RangeSet) Reset() {
	if cap(s.r) > maxKeptBlocks {
		s.r = nil
		return
	}
	s.r = s.r[:0]
}

// AppendBlocks appends up to max intervals to dst, highest first (the
// order SACK options report most-recent data), and returns it.
func (s *RangeSet) AppendBlocks(dst []packet.SackBlock, max int) []packet.SackBlock {
	for i := len(s.r) - 1; i >= 0 && max > 0; i, max = i-1, max-1 {
		dst = append(dst, s.r[i])
	}
	return dst
}

// Add inserts [start, end) and returns the number of newly covered units.
func (s *RangeSet) Add(start, end int64) int64 {
	if start >= end {
		return 0
	}
	// Find insertion window: all blocks overlapping or adjacent.
	i := 0
	for i < len(s.r) && s.r[i].End < start {
		i++
	}
	j := i
	newStart, newEnd := start, end
	var overlap int64
	for j < len(s.r) && s.r[j].Start <= end {
		b := s.r[j]
		if b.Start < newStart {
			newStart = b.Start
		}
		if b.End > newEnd {
			newEnd = b.End
		}
		lo, hi := max64(b.Start, start), min64(b.End, end)
		if hi > lo {
			overlap += hi - lo
		}
		j++
	}
	merged := packet.SackBlock{Start: newStart, End: newEnd}
	if j == i {
		s.r = append(s.r, packet.SackBlock{})
		copy(s.r[i+1:], s.r[i:])
		s.r[i] = merged
	} else {
		s.r[i] = merged
		s.r = append(s.r[:i+1], s.r[j:]...)
	}
	return (end - start) - overlap
}

// Contains reports whether x is covered.
func (s *RangeSet) Contains(x int64) bool {
	for _, b := range s.r {
		if x < b.Start {
			return false
		}
		if x < b.End {
			return true
		}
	}
	return false
}

// CoveredWithin returns how many units of [start, end) are covered.
func (s *RangeSet) CoveredWithin(start, end int64) int64 {
	var n int64
	for _, b := range s.r {
		if b.Start >= end {
			break
		}
		lo, hi := max64(b.Start, start), min64(b.End, end)
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

// NextUncovered returns the smallest y >= x that is not covered.
func (s *RangeSet) NextUncovered(x int64) int64 {
	for _, b := range s.r {
		if x < b.Start {
			return x
		}
		if x < b.End {
			x = b.End
		}
	}
	return x
}

// NextCoveredAtOrAfter returns the smallest covered y >= x, or end if none
// before end.
func (s *RangeSet) NextCoveredAtOrAfter(x, end int64) int64 {
	for _, b := range s.r {
		if b.End <= x {
			continue
		}
		if b.Start >= end {
			break
		}
		if b.Start > x {
			return min64(b.Start, end)
		}
		return x
	}
	return end
}

// Max returns the highest covered point + 1 would exceed; i.e. the End of
// the last interval, or 0 if empty.
func (s *RangeSet) Max() int64 {
	if len(s.r) == 0 {
		return 0
	}
	return s.r[len(s.r)-1].End
}

// TrimBelow removes coverage below x. Fully-trimmed blocks are shifted
// out in place rather than resliced forward: reslicing strands the
// leading capacity, so a long-lived set (a receiver trimming for the
// whole flow) would force Add to reallocate over and over.
func (s *RangeSet) TrimBelow(x int64) {
	i := 0
	for i < len(s.r) && s.r[i].End <= x {
		i++
	}
	if i > 0 {
		n := copy(s.r, s.r[i:])
		s.r = s.r[:n]
	}
	if len(s.r) > 0 && s.r[0].Start < x {
		s.r[0].Start = x
	}
}

// Total returns the total covered units.
func (s *RangeSet) Total() int64 {
	var n int64
	for _, b := range s.r {
		n += b.End - b.Start
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
