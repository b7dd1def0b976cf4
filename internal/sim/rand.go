package sim

import "math/rand"

// RNG is a deterministic random source for workload generation. It wraps
// math/rand with a fixed seed so runs are reproducible; experiments vary
// the seed to obtain independent replications, as the paper does.
//
// The math/rand source (about 5 kB) is built on the first draw, so a
// stream that is seeded but never read — a step-ECN switch's, or a
// reservoir's that never overflows — costs only its seed.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// gen returns the generator, building its source on first use.
func (g *RNG) gen() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.gen().Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.gen().Intn(n) }

// Int63 returns a non-negative uniform 63-bit value.
func (g *RNG) Int63() int64 { return g.gen().Int63() }

// Int63n returns a uniform value in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.gen().Int63n(n) }

// ExpDuration samples an exponential inter-arrival time with the given
// mean. Used for Poisson flow arrival processes.
func (g *RNG) ExpDuration(mean Time) Time {
	d := Time(g.gen().ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.gen().Perm(n) }
