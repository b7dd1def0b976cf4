package transport

import (
	"math/rand"
	"testing"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

func BenchmarkRangeSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s RangeSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := int64(rng.Intn(1 << 20))
		s.Add(start, start+1000)
		if s.Len() > 4096 {
			s.Reset()
		}
	}
}

func BenchmarkRangeSetNextUncovered(b *testing.B) {
	var s RangeSet
	for i := int64(0); i < 1000; i++ {
		s.Add(i*2000, i*2000+1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextUncovered(int64(i) % (2000 * 1000))
	}
}

func BenchmarkPktBoardAckSack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		board := NewPktBoard(1024)
		for p := int64(0); p < 1024; p++ {
			board.OnSent(p, false, sim.Time(p))
		}
		board.Sack([]packet.SackBlock{{Start: 512, End: 1024}})
		for board.NextRetx() >= 0 {
			board.OnSent(board.NextRetx(), true, 2000)
		}
		board.Ack(1024)
	}
}

func BenchmarkRTOEstimator(b *testing.B) {
	e := NewRTOEstimator(DefaultRTO())
	for i := 0; i < b.N; i++ {
		e.Sample(sim.Time(50+i%100) * sim.Microsecond)
		_ = e.RTO()
	}
}
