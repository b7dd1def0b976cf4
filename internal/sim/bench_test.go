package sim

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the scheduler hot paths. BenchmarkPostPop is the
// per-event cost budget the fabric hot path pays (one schedule + one
// pop); it must report 0 allocs/op — the event node pool and typed kinds
// exist precisely so steady state allocates nothing.

var nopKind = NewKind(func(tgt, arg any) {})

func BenchmarkPostPop(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PostKind(s.Now()+Time(i%512), nopKind, 0, nil)
		if s.Pending() > 1024 {
			s.Run(s.Now() + 256)
		}
	}
	s.RunAll()
}

// BenchmarkTimerChurn is the RTO pattern: arm a cancellable timer far
// out, cancel it before it fires, re-arm. Dead-timer reclamation keeps
// this from polluting the queue.
func BenchmarkTimerChurn(b *testing.B) {
	s := New()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	var tm Timer
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = s.At(s.Now()+Time(1000+rng.Intn(100_000)), fn)
		if i%8 == 0 {
			s.Post(s.Now()+Time(rng.Intn(64)), fn)
			s.Run(s.Now() + 32)
		}
	}
	tm.Stop()
	s.RunAll()
}

// BenchmarkWheelFarTimers schedules past the wheel span so every event
// waits in far and enters the wheel across a window boundary before
// firing — the worst case for the hierarchy.
func BenchmarkWheelFarTimers(b *testing.B) {
	s := New()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+Time(wheelSpan)+Time(rng.Int63n(int64(wheelSpan))), fn)
		if s.Pending() > 4096 {
			s.RunAll()
		}
	}
	s.RunAll()
}
