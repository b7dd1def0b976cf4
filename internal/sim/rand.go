package sim

import "math/rand"

// RNG is a deterministic random source for workload generation. It wraps
// math/rand with a fixed seed so runs are reproducible; experiments vary
// the seed to obtain independent replications, as the paper does.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit value.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// ExpDuration samples an exponential inter-arrival time with the given
// mean. Used for Poisson flow arrival processes.
func (g *RNG) ExpDuration(mean Time) Time {
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
