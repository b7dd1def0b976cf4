package experiments

import (
	"fmt"
	"strings"
	"testing"

	"tlt/internal/chaos"
	"tlt/internal/sim"
	"tlt/internal/stats"
)

// withProcs swaps the shared worker limit for the duration of a test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := Procs()
	SetProcs(n)
	t.Cleanup(func() { SetProcs(old) })
}

func TestRunGridPreservesOrderAndRecoversPanics(t *testing.T) {
	cells := make([]RunConfig, 16)
	for i := range cells {
		cells[i] = RunConfig{
			Seed:  int64(i),
			Label: fmt.Sprintf("cell%d", i),
			Custom: func(rc RunConfig) *Result {
				if rc.Seed == 7 {
					panic("boom")
				}
				return &Result{Rec: stats.NewRecorder(), App: rc.Seed, EventsRun: 1}
			},
		}
	}
	rs := RunGrid(cells, GridOpts{Procs: 8})
	if len(rs) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(rs), len(cells))
	}
	for i, r := range rs {
		if i == 7 {
			if !r.Panicked {
				t.Fatal("panicking cell not marked Panicked")
			}
			note := strings.Join(r.Notes, "\n")
			if !strings.Contains(note, "cell7") || !strings.Contains(note, "boom") {
				t.Fatalf("panic note lacks replay info:\n%s", note)
			}
			continue
		}
		if r.Panicked {
			t.Fatalf("cell %d spuriously panicked: %v", i, r.Notes)
		}
		if got := r.App.(int64); got != int64(i) {
			t.Fatalf("results out of order: slot %d holds seed %d", i, got)
		}
	}
}

// RunGrid must apply the session harness (the -chaos / -audit flags) to
// cells that don't carry their own plan, and leave explicit plans alone.
func TestRunGridInheritsHarness(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 7,
		Flaps: []chaos.LinkFlap{{
			Link: chaos.RandomTarget, At: 100 * sim.Microsecond,
			Down: 30 * sim.Microsecond, Every: sim.Millisecond, Count: 4,
		}},
	}
	SetHarness(plan, true)
	t.Cleanup(func() { SetHarness(nil, false) })

	rc := RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1,
	}
	rs := RunGrid([]RunConfig{rc}, GridOpts{})
	if rs[0].Faults.LinkFlaps == 0 {
		t.Fatal("harness fault plan not applied to plan-less cell")
	}
	if rs[0].AuditEvents == 0 {
		t.Fatal("harness audit flag not applied")
	}

	// An explicit (empty) plan must override the session plan.
	rc.Faults = &chaos.Plan{}
	rs = RunGrid([]RunConfig{rc}, GridOpts{})
	if rs[0].Faults.LinkFlaps != 0 {
		t.Fatal("explicit empty plan overridden by harness plan")
	}
}

// renderAt renders one experiment's report with the shared limit set to
// procs. Only the table/notes text is compared; timing never leaks in.
func renderAt(t *testing.T, id string, scale Scale, procs int) string {
	t.Helper()
	withProcs(t, procs)
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	rep := RunEntry(e, scale)
	return rep.String()
}

// The regression the whole executor design hangs on: a report produced
// with 8 workers must be byte-identical to the serial one, and parallel
// runs must be identical to each other.
func TestGridReportsDeterministicAcrossProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	scale := Scale{BgFlows: 30, Seeds: 2, AppPoints: 2}
	for _, id := range []string{"fig5", "chaos-recovery", "failure-recovery", "ablation-buffer"} {
		serial := renderAt(t, id, scale, 1)
		par1 := renderAt(t, id, scale, 8)
		par2 := renderAt(t, id, scale, 8)
		if serial != par1 {
			t.Fatalf("%s: parallel report differs from serial\n--- serial ---\n%s\n--- procs=8 ---\n%s", id, serial, par1)
		}
		if par1 != par2 {
			t.Fatalf("%s: two parallel runs differ\n--- run1 ---\n%s\n--- run2 ---\n%s", id, par1, par2)
		}
	}
}

// sweep folds must replay in registration order even when cells finish
// out of order, so row order is a pure function of registration.
func TestSweepFoldOrder(t *testing.T) {
	rep := &Report{ID: "t", Header: []string{"i"}}
	sw := newSweep(rep)
	for i := 0; i < 12; i++ {
		sw.cell(RunConfig{
			Seed: int64(i),
			Custom: func(rc RunConfig) *Result {
				return &Result{Rec: stats.NewRecorder(), EventsRun: 10}
			},
		}, func(res *Result) {
			rep.AddRow(fmt.Sprintf("%d", i))
		})
	}
	withProcs(t, 8)
	sw.exec()
	for i, row := range rep.Rows {
		if row[0] != fmt.Sprintf("%d", i) {
			t.Fatalf("row %d = %q; fold order not registration order", i, row[0])
		}
	}
	cells, events := rep.GridStats()
	if cells != 12 || events != 120 {
		t.Fatalf("grid stats = %d cells, %d events; want 12, 120", cells, events)
	}
}

// TestDumbbellHonoursAudit: -audit reaches the dumbbell driver — the
// auditor checks events there — and without the flag nothing is attached.
func TestDumbbellHonoursAudit(t *testing.T) {
	rc := RunConfig{Variant: Variant{Transport: "dctcp", TLT: true, PFC: true}, Seed: 1}
	if res := runDumbbell(rc, 60); res.AuditEvents != 0 || len(res.Notes) != 0 {
		t.Fatalf("no flag: AuditEvents = %d notes = %q, want none", res.AuditEvents, res.Notes)
	}
	rc.Audit = true
	if res := runDumbbell(rc, 60); res.AuditEvents == 0 {
		t.Fatal("-audit: the dumbbell ran unaudited")
	}
}

// TestUnhonouredFlagsAreNoted: a driver that cannot honour a session
// flag says so in the cell's notes, naming the flag and the cell, instead
// of dropping it silently — and says nothing when the flag is not set.
func TestUnhonouredFlagsAreNoted(t *testing.T) {
	plan := &chaos.Plan{Flaps: []chaos.LinkFlap{{Link: 0, At: sim.Millisecond, Down: 50 * sim.Microsecond}}}
	noted := func(res *Result, flag, cell string) bool {
		for _, n := range res.Notes {
			if strings.Contains(n, flag) && strings.Contains(n, cell) {
				return true
			}
		}
		return false
	}
	star := RunConfig{Label: "star cell", Variant: Variant{Transport: "dctcp"}, Seed: 1, Custom: incastCell(16)}
	dumbbell := RunConfig{Label: "dumbbell cell", Variant: Variant{Transport: "dctcp", PFC: true}, Seed: 1,
		Custom: func(rc RunConfig) *Result { return runDumbbell(rc, 60) }}
	for _, rc := range []RunConfig{star, dumbbell} {
		if res := runCell(rc); len(res.Notes) != 0 {
			t.Errorf("%s, no flag: notes %q, want none", rc.Label, res.Notes)
		}
		rc.Faults = plan
		if res := runCell(rc); !noted(res, "-chaos", rc.Label) {
			t.Errorf("%s: fault plan dropped without a note: %q", rc.Label, res.Notes)
		}
	}

	scale := RunConfig{Label: "scale cell", Variant: Variant{Transport: "dctcp"}, Seed: 1}
	p := scaleParams{K: 4, Load: 0.6, Requests: 200, Fanout: 4}
	if res := runScale(scale, p); len(res.Notes) != 0 {
		t.Errorf("scale cell, no flag: notes %q, want none", res.Notes)
	}
	scale.Audit = true
	if res := runScale(scale, p); !noted(res, "-audit", scale.Label) {
		t.Errorf("scale cell: -audit dropped without a note: %q", res.Notes)
	}
}
