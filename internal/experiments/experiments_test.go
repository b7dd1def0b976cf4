package experiments

import (
	"strings"
	"testing"

	"tlt/internal/chaos"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/topo"
	"tlt/internal/workload"
)

func tinyScale() Scale { return Scale{BgFlows: 40, Seeds: 1, AppPoints: 1} }

func TestVariantNames(t *testing.T) {
	cases := []struct {
		v    Variant
		want string
	}{
		{Variant{Transport: "dctcp"}, "dctcp"},
		{Variant{Transport: "dctcp", TLT: true, PFC: true}, "dctcp+tlt+pfc"},
		{Variant{Transport: "tcp", RTOMin: 200 * sim.Microsecond}, "tcp+rtomin200.000us"},
		{Variant{Transport: "dctcp", FixedRTO: 160 * sim.Microsecond}, "dctcp+rto160.000us"},
		{Variant{Transport: "tcp", TLP: true}, "tcp+tlp"},
	}
	for _, c := range cases {
		if got := c.v.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestVariantFamilies(t *testing.T) {
	if (Variant{Transport: "dctcp"}).IsRoCE() {
		t.Fatal("dctcp is not RoCE")
	}
	if !(Variant{Transport: "hpcc"}).IsRoCE() {
		t.Fatal("hpcc is RoCE")
	}
	if d := (Variant{Transport: "tcp"}).linkDelay(); d != 10*sim.Microsecond {
		t.Fatalf("tcp link delay = %v", d)
	}
	if d := (Variant{Transport: "dcqcn"}).linkDelay(); d != sim.Microsecond {
		t.Fatalf("roce link delay = %v", d)
	}
	if k := (Variant{Transport: "tcp", TLT: true}).colorThreshold(); k != 400_000 {
		t.Fatalf("tcp color threshold = %d", k)
	}
	if k := (Variant{Transport: "hpcc", TLT: true}).colorThreshold(); k != 200_000 {
		t.Fatalf("roce color threshold = %d", k)
	}
	if k := (Variant{Transport: "tcp"}).colorThreshold(); k != 0 {
		t.Fatal("non-TLT variant must disable color dropping")
	}
}

func TestSwitchConfigPerVariant(t *testing.T) {
	sc := Variant{Transport: "dctcp", PFC: true}.switchConfig()
	if sc.KEcn != 200_000 || !sc.PFC || sc.XOff == 0 {
		t.Fatalf("dctcp+pfc config = %+v", sc)
	}
	sc = Variant{Transport: "hpcc"}.switchConfig()
	if !sc.INT || sc.PFC {
		t.Fatalf("hpcc config = %+v", sc)
	}
	sc = Variant{Transport: "dcqcn"}.switchConfig()
	if sc.KMin == 0 || sc.KMax == 0 {
		t.Fatalf("dcqcn ECN config = %+v", sc)
	}
}

func TestRunProducesCompleteFlows(t *testing.T) {
	res := Run(RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1,
	})
	if res.Incomplete != 0 {
		t.Fatalf("%d flows incomplete", res.Incomplete)
	}
	if res.FlowCount == 0 || res.Rec.TimeoutsAll() > res.FlowCount {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.FgP(0.99) <= 0 {
		t.Fatal("no foreground percentile")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig14c", "fig15",
		"fig16", "fig17", "fig18", "table1", "dumbbell", "ablation-n", "ablation-alpha",
		"ablation-buffer", "chaos-recovery", "failure-recovery", "scale-sweep"}
	if len(All) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(All), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Note("hello %d", 7)
	out := r.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// Two runs of the same config and fault plan must be bit-identical: the
// chaos engine derives every random choice from the plan seed and run
// seed, never from wall-clock or global state.
func TestRunDeterministicWithFaults(t *testing.T) {
	rc := RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    3,
		Faults: &chaos.Plan{
			Seed: 7,
			Flaps: []chaos.LinkFlap{{
				Link: chaos.RandomTarget, At: 100 * sim.Microsecond,
				Down: 30 * sim.Microsecond, Every: sim.Millisecond, Count: 8,
			}},
		},
	}
	a, b := Run(rc), Run(rc)
	if a.Faults != b.Faults {
		t.Fatalf("fault counters diverged:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if a.Faults.LinkFlaps == 0 {
		t.Fatal("plan injected no flaps")
	}
	if a.EventsRun != b.EventsRun || a.Incomplete != b.Incomplete || a.Elapsed != b.Elapsed {
		t.Fatalf("run diverged: events %d/%d incomplete %d/%d elapsed %v/%v",
			a.EventsRun, b.EventsRun, a.Incomplete, b.Incomplete, a.Elapsed, b.Elapsed)
	}
	if ap, bp := a.FgP(0.99), b.FgP(0.99); ap != bp {
		t.Fatalf("fg p99 diverged: %v vs %v", ap, bp)
	}
}

// The stall watchdog must name a starved flow and its transport state: we
// silently eat every data packet one flow ever sends and check the
// horizon report identifies it.
func TestStallWatchdogNamesStarvedFlow(t *testing.T) {
	tr := trafficFor(tinyScale(), 0.4, 0.05)
	tr.Seed = 1
	victim := workload.Generate(tr, 1)[0]

	res := Run(RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    1,
		Horizon: 100 * sim.Millisecond,
		Prepare: func(s *sim.Sim, net *topo.Network) {
			net.Hosts[victim.Src].NICTx().DropWhen(func(p *packet.Packet) bool {
				return p.Flow == victim.ID && p.Type == packet.Data
			})
		},
	})
	if res.Incomplete == 0 {
		t.Fatal("starved flow completed?")
	}
	found := false
	for _, fs := range res.Stalls {
		if fs.Flow == victim.ID {
			found = true
			if fs.Done {
				t.Fatalf("stalled flow reported done: %s", fs)
			}
			if fs.Transport != "tcp" || fs.State == "" {
				t.Fatalf("stall report missing transport state: %s", fs)
			}
			if fs.AckedBytes >= fs.TotalBytes {
				t.Fatalf("starved flow claims full delivery: %s", fs)
			}
		}
	}
	if !found {
		t.Fatalf("stall report does not name flow %d: %v", victim.ID, res.Stalls)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "incomplete=") || !strings.Contains(joined, "stall:") {
		t.Fatalf("harness notes missing stall report:\n%s", joined)
	}
}

// A clean run under the strict auditor must observe events and find no
// violations (the auditor panics on the first one, failing the test).
func TestAuditCleanRun(t *testing.T) {
	res := Run(RunConfig{
		Variant: Variant{Transport: "dctcp", TLT: true},
		Traffic: trafficFor(tinyScale(), 0.4, 0.05),
		Seed:    2,
		Audit:   true,
	})
	if res.AuditEvents == 0 {
		t.Fatal("auditor saw no events")
	}
	if res.Faults.AuditViolations != 0 {
		t.Fatalf("clean run produced %d violations", res.Faults.AuditViolations)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d flows incomplete under audit", res.Incomplete)
	}
}

// Smoke-run entries end to end at tiny scale, among them every one that no
// golden or other test renders: every row is as wide as the header and no
// cell reads NaN. fig17 is left out: its 1-byte clock cell recovers for
// ~320 ms of simulated time at any scale (19 s on a 2-CPU host), and the
// tcp wire-trace cells already pin its clocks.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"fig1", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig13",
		"fig14", "fig14c", "fig15", "fig18", "table1", "ablation-n", "ablation-alpha"} {
		e, _ := ByID(id)
		rep := e.Run(tinyScale())
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				t.Fatalf("%s row width %d != header %d", id, len(row), len(rep.Header))
			}
			for _, cell := range row {
				if strings.Contains(cell, "NaN") {
					t.Fatalf("%s row %q has a NaN cell", id, row)
				}
			}
		}
	}
}

// A goodput column with nothing to average reads n/a, not NaNGbps: under a
// plan naming a link the dumbbell lacks, every cell ends with a bad fault
// plan note and yields no goodput sample.
func TestEmptyGoodputRendersNA(t *testing.T) {
	plan, err := chaos.Parse("flap:link=40,at=200us,down=50us")
	if err != nil {
		t.Fatal(err)
	}
	SetHarness(plan, false)
	t.Cleanup(func() { SetHarness(nil, false) })
	rep := Dumbbell(tinyScale())
	if len(rep.Rows) != 2 {
		t.Fatalf("dumbbell rendered %d rows, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] != "n/a" {
			t.Errorf("%s: bg goodput %q, want n/a", row[0], row[2])
		}
	}
	if out := rep.String(); strings.Contains(out, "NaN") || !strings.Contains(out, "bad fault plan") {
		t.Errorf("want bad fault plan notes and no NaN:\n%s", out)
	}
}

func TestLeafSpineFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"fig2", "fig10", "fig16"} {
		e, _ := ByID(id)
		rep := e.Run(tinyScale())
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}
