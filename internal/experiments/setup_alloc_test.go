package experiments

import (
	"runtime"
	"testing"
)

// TestLeafSpineSetUpAlloc is the deterministic gate on what one
// leaf-spine cell's fabric costs to build once its shape's blueprint is
// warm: the bytes one leafSpine.build allocates, counted as TotalAlloc
// like the benchmark's alloc_mb. The budget is the measured value plus
// 10%. The ToR routing tables come from the blueprint and the
// switches' ECN streams build their math/rand sources only on a first
// draw; either one built per cell again (12 tables of 96 entries, 16
// sources of 4.9 kB) breaks it.
func TestLeafSpineSetUpAlloc(t *testing.T) {
	const budget = 228_208 * 11 / 10
	v := Variant{Transport: "dctcp"}
	build := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, net := leafSpine{}.build(v, 1, 1)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		runtime.KeepAlive(net)
		return after.TotalAlloc - before.TotalAlloc
	}
	build() // first use: the blueprint
	got := build()
	for i := 0; i < 4; i++ {
		got = min(got, build())
	}
	t.Logf("leaf-spine set-up: %d bytes, budget %d", got, budget)
	if got > budget {
		t.Fatalf("one leaf-spine build allocates %d bytes, budget %d: per-cell tables or sources are back", got, budget)
	}
}
