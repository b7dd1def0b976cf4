package stats

import "tlt/internal/sim"

// Reservoir performs uniform reservoir sampling so CDFs over tens of
// millions of per-packet samples stay memory-bounded. Its generator is
// drawn only once the reservoir overflows, so one that never fills
// builds no math/rand source.
type Reservoir struct {
	cap  int
	seen int64
	xs   []float64
	rng  *sim.RNG
}

// NewReservoir returns a reservoir holding at most capacity samples.
func NewReservoir(capacity int, seed int64) *Reservoir {
	return &Reservoir{cap: capacity, rng: sim.NewRNG(seed)}
}

// Add offers a sample.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.xs[j] = x
	}
}

// Samples returns the retained samples (not a copy).
func (r *Reservoir) Samples() []float64 { return r.xs }

// Seen returns how many samples were offered in total.
func (r *Reservoir) Seen() int64 { return r.seen }
