package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if !sort.Float64sAreSorted([]float64{1, 2}) || xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(xs []float64, p float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		p = math.Abs(math.Mod(p, 1))
		got := Percentile(xs, p)
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return got >= mn && got <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Stddev(xs); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("Stddev = %v", got)
	}
	if Stddev([]float64{1}) != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	pts := CDF(xs, 4)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0][0] != 1 || pts[0][1] != 0.25 {
		t.Fatalf("first point = %v", pts[0])
	}
	if pts[3][0] != 4 || pts[3][1] != 1 {
		t.Fatalf("last point = %v", pts[3])
	}
	if CDF(nil, 5) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestRecorderFlows(t *testing.T) {
	rec := NewRecorder()
	fg := &Flow{ID: 1, Size: 1000, Start: 0, FG: true}
	bg := &Flow{ID: 2, Size: 5000, Start: 100}
	fr1 := rec.NewFlowRecord(fg)
	fr2 := rec.NewFlowRecord(bg)
	fr1.Timeouts = 2
	rec.FlowDone(fr1, 1000)
	if d, tot := rec.CompletedCount(true); d != 1 || tot != 1 {
		t.Fatalf("fg completed = %d/%d", d, tot)
	}
	if d, tot := rec.CompletedCount(false); d != 0 || tot != 1 {
		t.Fatalf("bg completed = %d/%d", d, tot)
	}
	if got := rec.Select(true); len(got) != 1 || got[0] != 1e-6 {
		t.Fatalf("fg FCTs = %v", got)
	}
	if rec.Timeouts(true) != 2 || rec.TimeoutsAll() != 2 {
		t.Fatal("timeout counting wrong")
	}
	if rec.FlowsWithTimeouts() != 1 {
		t.Fatal("FlowsWithTimeouts wrong")
	}
	rec.FlowDone(fr2, 100+sim.Time(2e6))
	if got := rec.Goodput(false, sim.Second); got != 5000 {
		t.Fatalf("goodput = %v", got)
	}
}

func TestImportantFraction(t *testing.T) {
	rec := NewRecorder()
	fr := rec.NewFlowRecord(&Flow{ID: 1})
	fr.TotalBytes = 1000
	fr.ImpBytes = 100
	fr2 := rec.NewFlowRecord(&Flow{ID: 2})
	fr2.TotalBytes = 1000
	fr2.ImpBytes = 0
	if got := rec.ImportantFraction(); got != 0.05 {
		t.Fatalf("important fraction = %v", got)
	}
}

func TestReservoirExact(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 0; i < 50; i++ {
		r.Add(float64(i))
	}
	if len(r.Samples()) != 50 || r.Seen() != 50 {
		t.Fatal("under-capacity reservoir must keep everything")
	}
}

func TestReservoirSampling(t *testing.T) {
	r := NewReservoir(1000, 42)
	const n = 100_000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if len(r.Samples()) != 1000 || r.Seen() != n {
		t.Fatalf("size = %d seen = %d", len(r.Samples()), r.Seen())
	}
	// Uniformity sanity: the sample mean should be near n/2.
	m := Mean(r.Samples())
	if m < n*0.45 || m > n*0.55 {
		t.Fatalf("reservoir mean %.0f not near %d", m, n/2)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "n/a"},
		{1.5, "1.500s"},
		{0.0042, "4.20ms"},
		{0.0000213, "21.3us"},
	}
	for _, c := range cases {
		if got := FmtDur(c.in); got != c.want {
			t.Errorf("FmtDur(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Arena chunks must never move a live record: every pointer handed out
// by NewFlowRecord stays valid (and writable) across chunk turnover.
func TestFlowRecordArenaPointerStable(t *testing.T) {
	rec := NewRecorder()
	rec.Reserve(3 * arenaChunk / 2)
	var frs []*FlowRecord
	for i := 0; i < 3*arenaChunk/2; i++ {
		fr := rec.NewFlowRecord(&Flow{ID: packet.FlowID(i + 1)})
		fr.Timeouts = i
		frs = append(frs, fr)
	}
	for i, fr := range frs {
		if rec.Flows[i] != fr {
			t.Fatalf("record %d moved", i)
		}
		if fr.Flow.ID != packet.FlowID(i+1) || fr.Timeouts != i {
			t.Fatalf("record %d corrupted: %+v", i, fr)
		}
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	sorted := []float64{1, 2, 3, 4, 5}
	for _, p := range []float64{0, 0.2, 0.5, 0.99, 1} {
		if a, b := Percentile(xs, p), PercentileSorted(sorted, p); a != b {
			t.Fatalf("p=%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
	if !math.IsNaN(PercentileSorted(nil, 0.5)) {
		t.Fatal("empty input must yield NaN")
	}
}
