package experiments

import (
	"os"
	"testing"
)

// goldenScale is the scale the scheduler-swap goldens were captured at.
// It matches TestGridReportsDeterministicAcrossProcs so the two suites
// exercise the same grids.
func goldenScale() Scale { return Scale{BgFlows: 30, Seeds: 2, AppPoints: 2} }

var goldenIDs = []string{"fig5", "chaos-recovery", "failure-recovery", "ablation-buffer", "scale-sweep",
	"fig12", "fig13", "fig14", "fig14c", "dumbbell"}

// TestSchedulerSwapReportsByteIdentical pins every goldenIDs report at
// both serial and 8-way execution: the leaf-spine and fat-tree ones to
// goldens captured with the seed flat-heap scheduler, the testbed ones to
// goldens captured before their cells moved onto the one run driver.
// Any scheduler or driver change that reorders same-instant events — a
// wheel placement bug, an unstable cascade, a fused link event firing out
// of turn — shows up here as a byte diff.
//
// Regenerate (only when an intentional model change lands) with:
//
//	GEN_GOLDENS=1 go test -run TestSchedulerSwapReportsByteIdentical ./internal/experiments/
func TestSchedulerSwapReportsByteIdentical(t *testing.T) {
	if os.Getenv("GEN_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range goldenIDs {
			out := renderAt(t, id, goldenScale(), 1)
			if err := os.WriteFile("testdata/"+id+".golden", []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("goldens regenerated")
		return
	}
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range goldenIDs {
		want, err := os.ReadFile("testdata/" + id + ".golden")
		if err != nil {
			t.Fatalf("missing golden (run with GEN_GOLDENS=1 to create): %v", err)
		}
		for _, procs := range []int{1, 8} {
			got := renderOnce(t, id, goldenScale(), procs)
			if got != string(want) {
				t.Errorf("%s at procs=%d diverged from the seed-scheduler golden\n--- got ---\n%s\n--- want ---\n%s",
					id, procs, got, want)
			}
		}
	}
}
