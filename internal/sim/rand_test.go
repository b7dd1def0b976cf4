package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestRNGMatchesMathRand pins every stream the simulator draws: an RNG,
// whose source is built on its first draw, yields exactly what
// rand.New(rand.NewSource(seed)) yields, draw for draw, with every
// method interleaved.
//
// Mutation-checked: fails when the source is rebuilt on every draw.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 0x7a17, 1 << 40} {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 600; i++ {
			var got, want any
			switch i % 6 {
			case 0:
				got, want = g.Float64(), ref.Float64()
			case 1:
				got, want = g.Intn(97), ref.Intn(97)
			case 2:
				got, want = g.Int63(), ref.Int63()
			case 3:
				n := int64(i*1_000_003 + 1)
				got, want = g.Int63n(n), ref.Int63n(n)
			case 4:
				const mean = 10 * Microsecond
				d := Time(ref.ExpFloat64() * float64(mean))
				got, want = g.ExpDuration(mean), max(d, 1)
			case 5:
				got, want = g.Perm(i%13), ref.Perm(i%13)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, got, want)
			}
		}
	}
}

var rngSink *RNG

// TestRNGUndrawnIsSmall pins what a seeded, never-drawn stream costs: one
// allocation of the seed and a nil source pointer, not math/rand's 5 kB
// source.
func TestRNGUndrawnIsSmall(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { rngSink = NewRNG(7) })
	if allocs != 1 {
		t.Fatalf("NewRNG allocates %v times, want 1", allocs)
	}
	if size := unsafe.Sizeof(RNG{}); size > 16 {
		t.Fatalf("RNG is %d bytes, want at most 16", size)
	}
}
