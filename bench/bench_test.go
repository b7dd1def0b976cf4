package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json must say what the code measures: same workloads, same
// metric names, units, directions and bounds, within the contract's
// limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 ||
		len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q / %q, code says %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d is %+v, code says %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d is %+v, code says %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// Every P row has a probe and every probe fills a P row.
func TestProbesCoverProbeRows(t *testing.T) {
	have := map[string]bool{}
	for _, p := range probes {
		have[p.Name] = true
	}
	for _, m := range perLayer {
		if m.Source == "P" && !have[m.Name] {
			t.Errorf("no probe for %s", m.Name)
		}
		delete(have, m.Name)
	}
	for n := range have {
		t.Errorf("probe %s fills no per-layer metric", n)
	}
}

// A tiny run of every workload prints every metric by name and ends
// with a result line carrying exactly the contract's keys.
func TestSmokeAllWorkloads(t *testing.T) {
	defer func(n int) { minTimedPasses = n }(minTimedPasses)
	minTimedPasses = 1

	resultLine := func(out string) map[string]json.RawMessage {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		keys := []string{}
		for k := range line {
			keys = append(keys, k)
		}
		if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("result line has keys %v", keys)
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("result line reports correct=%s failed=%s", line["correct"], line["failed"])
		}
		return line
	}
	metricNames := func(line map[string]json.RawMessage) map[string]bool {
		t.Helper()
		var ms map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for n, m := range ms {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("metric %s lacks a value or a unit", n)
			}
			names[n] = true
		}
		return names
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-scale", "0.02", "-seconds", "0", "-trace", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, w := range workloads {
		section := out[strings.Index(out, "== "+w.Name):]
		if next := strings.Index(section[3:], "\n== "); next >= 0 {
			section = section[:next+3]
		}
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s`).MatchString(section) {
				t.Errorf("%s does not print %s", w.Name, m.Name)
			}
		}
		for _, want := range []string{"fail_share", "sim_digest", "residual"} {
			if !strings.Contains(section, want) {
				t.Errorf("%s does not print %s", w.Name, want)
			}
		}
	}
	// Several workloads ran, so each metric is under "<workload>/<metric>"
	// and the cell counts are the sum over the workloads.
	line := resultLine(out)
	names := metricNames(line)
	for _, w := range workloads {
		for _, m := range perLayer {
			if !names[w.Name+"/"+m.Name] {
				t.Errorf("-trace 1 result line lacks %s/%s", w.Name, m.Name)
			}
		}
	}
	if want := len(workloads) * len(perLayer); len(names) != want {
		t.Errorf("-trace 1 result line has %d metrics, want %d", len(names), want)
	}
	sum := 0
	for _, m := range regexp.MustCompile(`attempted (\d+) cells`).FindAllStringSubmatch(out, -1) {
		n, _ := strconv.Atoi(m[1])
		sum += n
	}
	if got := string(line["attempted"]); got != strconv.Itoa(sum) || sum < 2*(12+14) {
		t.Errorf("-workload all attempted %s cells, the workloads printed %d in all", got, sum)
	}

	stdout.Reset()
	if code := run([]string{"--workload", "leafspine-tcp", "--seed", "7", "--scale", "0.02", "--seconds", "0", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	names = metricNames(resultLine(stdout.String()))
	for _, m := range endToEnd {
		if !names[m.Name] {
			t.Errorf("-trace 0 result line lacks %s", m.Name)
		}
	}
	if len(names) != len(endToEnd) {
		t.Errorf("-trace 0 result line has %d metrics, want %d", len(names), len(endToEnd))
	}
}

// A pass whose simulated results differ from pass 1 fails all its cells.
func TestDigestCheckFires(t *testing.T) {
	mk := func(render string) *passOut {
		o := &passOut{Render: render, Cells: 12, Events: 100, Packets: 40}
		o.seal()
		return o
	}
	a, same, perturbed := mk("dctcp timeouts=7"), mk("dctcp timeouts=7"), mk("dctcp timeouts=8")
	if a.Digest != same.Digest || a.Digest == perturbed.Digest {
		t.Fatalf("digests: %s %s %s", a.Digest, same.Digest, perturbed.Digest)
	}
	moved := mk("dctcp timeouts=7")
	moved.Events++
	moved.seal()
	if moved.Digest == a.Digest {
		t.Error("digest does not cover the event count")
	}

	r := &workloadResult{}
	r.account([]*passOut{a, same, perturbed}, a)
	if r.Attempted != 36 || r.Failed != 12 || len(r.Problems) != 1 {
		t.Errorf("attempted %d failed %d problems %v, want 36, 12 and one problem", r.Attempted, r.Failed, r.Problems)
	}
	clean := &workloadResult{}
	clean.account([]*passOut{a, same}, a)
	if clean.Attempted != 24 || clean.Failed != 0 || len(clean.Problems) != 0 {
		t.Errorf("clean passes: attempted %d failed %d problems %v", clean.Attempted, clean.Failed, clean.Problems)
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize([]float64{5, 1, 3}); s.Median != 3 || s.Min != 1 || s.Max != 5 || s.N != 3 {
		t.Errorf("odd: %+v", s)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("even: %+v", s)
	}
	if s := summarize(nil); !math.IsNaN(s.Median) || s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if g := worseBy(lower, 2, 2.2); math.Abs(g-0.1) > 1e-12 {
		t.Errorf("lower-is-better 2 -> 2.2: %v", g)
	}
	if g := worseBy(higher, 2, 2.2); math.Abs(g+0.1) > 1e-12 {
		t.Errorf("higher-is-better 2 -> 2.2: %v", g)
	}
}

// The stability check holds a later set's medians against the first
// set's bounds, and lets setup_s move by less than its 5 ms floor.
func TestCompareSetsBoundAndFloor(t *testing.T) {
	set := func(wall, setup float64) []*workloadResult {
		r := &workloadResult{Name: "w", SimDigest: "d", EndToEnd: map[string]summary{}}
		for _, m := range endToEnd {
			r.EndToEnd[m.Name] = summary{Median: 1}
		}
		r.EndToEnd["wall_s"] = summary{Median: wall}
		r.EndToEnd["setup_s"] = summary{Median: setup}
		return []*workloadResult{r}
	}
	for _, c := range []struct {
		wall, setup float64
		ok          bool
	}{
		{2.4, 0.010, true},  // 20% worse: inside the 25% bound
		{2.6, 0.010, false}, // 30% worse
		{2.0, 0.013, true},  // 30% worse but 3 ms: below the floor
		{2.0, 0.016, false}, // 60% worse and 6 ms
		{1.0, 0.001, true},  // better
	} {
		var out bytes.Buffer
		if got := compareSets(&out, [][]*workloadResult{set(2, 0.010), set(c.wall, c.setup)}); got != c.ok {
			t.Errorf("wall 2 -> %v, setup 0.010 -> %v: ok=%v, want %v\n%s", c.wall, c.setup, got, c.ok, out.String())
		}
	}
	moved := set(2, 0.010)
	moved[0].SimDigest = "other"
	if compareSets(&bytes.Buffer{}, [][]*workloadResult{set(2, 0.010), moved}) {
		t.Error("a moved sim_digest passed the stability check")
	}
}

// The ledger nets each probe of the layers below it, so rows add up.
func TestLedgerArithmetic(t *testing.T) {
	in := ledgerIn{
		Events: 1e6, Packets: 4e5, DataPkts: 1e5, Flows: 1e3,
		SetupS: 0.01, MeasuredS: 0.2,
		PostpopNs: 30,
		// A hop costs 200 ns of which 4 events are sim: 80 ns per enqueue.
		Hop: probeResult{NsPerOp: 200, EventsPerOp: 4, EnqPerOp: 1},
		// A data packet costs 700 ns: 8 events and 2 enqueues below it
		// leave 700-240-160 = 300 ns of transport.
		Pkt: probeResult{NsPerOp: 700, EventsPerOp: 8, EnqPerOp: 2},
		// An 8-packet flow costs 9000 ns: 80 events, 16 enqueues and 8
		// data packets below it leave 9000-2400-1280-2400 = 2920 ns.
		Flow: probeResult{NsPerOp: 9000, EventsPerOp: 80, EnqPerOp: 16, DataPerOp: 8},
	}
	out := computeLedger(in)
	wantNs := []float64{30, 80, 300, 2920, 0.01e9}
	wantS := []float64{0.03, 0.032, 0.03, 0.00292, 0.01}
	var total float64
	for i, row := range out.Rows {
		if math.Abs(row.NsPerOp-wantNs[i]) > 1e-6 || math.Abs(row.Seconds-wantS[i]) > 1e-12 {
			t.Errorf("row %s: %v ns/op %v s, want %v and %v", row.Layer, row.NsPerOp, row.Seconds, wantNs[i], wantS[i])
		}
		total += wantS[i]
	}
	if math.Abs(out.PredictedS-total) > 1e-12 {
		t.Errorf("predicted %v, want %v", out.PredictedS, total)
	}
	if want := (0.2 - total) / 0.2; math.Abs(out.ResidualShare-want) > 1e-12 {
		t.Errorf("residual share %v, want %v", out.ResidualShare, want)
	}
	// A probe cheaper than the layers below it prices its own layer at
	// zero, never negative.
	in.Pkt.NsPerOp = 100
	if row := computeLedger(in).Rows[2]; row.NsPerOp != 0 || row.Seconds != 0 {
		t.Errorf("transport row went negative: %+v", row)
	}
}

// Self time is the span minus what its children cover, overlaps once.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{workload: "w"}
	tr.spans = []span{
		{ID: 0, Parent: -1, start: 0, end: 100 * ms, children: []int{1, 2, 3}},
		{ID: 1, Parent: 0, start: 10 * ms, end: 40 * ms},
		{ID: 2, Parent: 0, start: 30 * ms, end: 50 * ms},  // overlaps span 1 by 10 ms
		{ID: 3, Parent: 0, start: 90 * ms, end: 120 * ms}, // runs past the parent
	}
	if got, want := tr.selfTime(0), 50*ms; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got, want := tr.selfTime(1), 30*ms; got != want {
		t.Errorf("leaf self time %v, want %v", got, want)
	}
}
