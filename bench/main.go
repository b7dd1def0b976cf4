// Command bench is the repository's benchmark: four simulator workloads
// run in-process through the public entry points of internal/experiments,
// host-time end-to-end metrics, and a per-layer ledger built from the
// outside (counts the program reports, probes of each layer's public
// functions, and spans around the calls the benchmark makes). README.md
// has the metric map and the protocol; BENCHMARK.json is the contract.
//
//	bash bench/run.sh -workload all -seed 1 -out /tmp/bench
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// runFile is the -out document.
type runFile struct {
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"num_cpu"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Scale      float64             `json:"scale"`
	Seconds    float64             `json:"seconds"`
	Sets       [][]*workloadResult `json:"sets"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "recorded; every workload runs one fixed schedule whatever the seed (see README.md, \"The seed\")")
	seconds := fs.Float64("seconds", 15, "with -trace 0, keep timing passes until this many seconds have passed (never fewer than 5 passes; -trace 1 stops at 5)")
	trace := fs.Int("trace", 1, "1 adds the probes and the traced pass and reports the per-layer metrics; 0 reports the end-to-end metrics")
	out := fs.String("out", "", "write the full results to <out>.json and the spans to <out>.trace.json")
	sets := fs.Int("sets", 1, "run the whole protocol this many times and check the sets against each other")
	scale := fs.Float64("scale", 1, "scale the workload sizes and probe loops (1 is the benchmark; smaller is for smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*workload); ok {
		todo = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	if *sets < 1 || *scale <= 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "want -sets >= 1, -scale > 0, -seconds >= 0, -trace 0 or 1")
		return 2
	}

	opts := runOpts{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Scale: *scale,
	}
	file := runFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: *scale, Seconds: *seconds,
	}
	fmt.Fprintf(stdout, "host: %s, %d CPUs, GOMAXPROCS %d; -seed %d -seconds %g -scale %g\n",
		file.GoVersion, file.NumCPU, file.GOMAXPROCS, *seed, *seconds, *scale)

	// The result line counts the cells of everything that ran and carries
	// the last set's metrics, under "<workload>/<metric>" when more than
	// one workload ran.
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	var tracers []*tracer
	for set := 1; set <= *sets; set++ {
		var results []*workloadResult
		opts.Probes = &probeSet{}
		for _, w := range todo {
			res := runWorkload(w, opts)
			res.print(stdout, set)
			line.Correct = line.Correct && res.Correct
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			results = append(results, res)
			tracers = append(tracers, res.tracer)
		}
		file.Sets = append(file.Sets, results)
		tracers = append(tracers, opts.Probes.tracer)
	}
	if *sets > 1 && !compareSets(stdout, file.Sets) {
		line.Correct = false
	}
	if *out != "" {
		if err := writeOut(*out, file, tracers); err != nil {
			fmt.Fprintln(stderr, err)
			line.Correct = false
		}
	}
	for _, res := range file.Sets[len(file.Sets)-1] {
		prefix := ""
		if len(todo) > 1 {
			prefix = res.Name + "/"
		}
		if opts.Trace {
			for _, m := range perLayer {
				line.Metrics[prefix+m.Name] = metricValue{Value: res.Layers[m.Name], Unit: m.Unit}
			}
		} else {
			for _, m := range endToEnd {
				line.Metrics[prefix+m.Name] = metricValue{Value: res.EndToEnd[m.Name].Median, Unit: m.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// writeOut stores the results and, when a traced run recorded any, the
// spans; tracers holds a nil for everything that ran untraced.
func writeOut(prefix string, file runFile, tracers []*tracer) error {
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	var traced []*tracer
	for _, t := range tracers {
		if t != nil {
			traced = append(traced, t)
		}
	}
	if len(traced) == 0 {
		return nil
	}
	return writeTrace(prefix+".trace.json", traced)
}

// print writes every metric by name with its unit.
func (r *workloadResult) print(w io.Writer, set int) {
	fmt.Fprintf(w, "\n== %s (set %d) ==\n", r.Name, set)
	fmt.Fprintf(w, "  size: %s\n", r.Size)
	fmt.Fprintf(w, "  seed: %d, seed_honoured: %v, RunConfig.Seed %d (0: the sweep builder's own); procs %d\n", r.Seed, r.SeedHonoured, r.RunSeed, r.Procs)
	fmt.Fprintf(w, "  sim_digest: %s\n", r.SimDigest)
	fmt.Fprintf(w, "  end-to-end (host time, median of the timed passes):\n")
	for _, m := range endToEnd {
		s := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s min %.6g max %.6g n=%d (%s is better, bound %.2f)\n",
			m.Name, s.Median, m.Unit, s.Min, s.Max, s.N, m.Better, m.Bound)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-8s attempted %d cells, failed %d (any increase is a regression)\n",
		"fail_share", r.FailShare, "share", r.Attempted, r.Failed)
	if r.Layers != nil {
		fmt.Fprintf(w, "  per layer (C count, P probe, S span, L derived; counts from Result are 0 where a Report does not carry them):\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", m.Name, r.Layers[m.Name], m.Unit, m.Source)
		}
		if r.Name == "artifact-grid" {
			fmt.Fprintf(w, "  note: star and dumbbell custom cells (fig12-14c, dumbbell) report 0 packets; they are about 5%% of this workload's serial wall\n")
		}
		r.Ledger.print(w)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// memStatsCounts are the C rows read from runtime.MemStats: they repeat
// to ~1e-5, not exactly, because the Go runtime's own allocations vary.
var memStatsCounts = map[string]bool{
	"tcp.allocs_per_flow": true, "runtime.mallocs_per_flow": true, "runtime.gc_cycles": true,
}

// compareSets is the stability check: every end-to-end median of a later
// set must be within the metric's bound of the first set's, or closer to
// it than the metric's floor, and the simulated results must be identical.
func compareSets(w io.Writer, sets [][]*workloadResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== stability: later sets against set 1 ==\n")
	for s := 1; s < len(sets); s++ {
		for i, r := range sets[s] {
			base := sets[0][i]
			if r.SimDigest != base.SimDigest {
				ok = false
				fmt.Fprintf(w, "  %-16s set %d sim_digest differs from set 1\n", r.Name, s+1)
			}
			for _, m := range perLayer {
				if m.Source == "C" && !memStatsCounts[m.Name] && r.Layers[m.Name] != base.Layers[m.Name] {
					ok = false
					fmt.Fprintf(w, "  %-16s set %d count %s moved: %v -> %v\n", r.Name, s+1, m.Name, base.Layers[m.Name], r.Layers[m.Name])
				}
			}
			for _, m := range endToEnd {
				b, v := base.EndToEnd[m.Name].Median, r.EndToEnd[m.Name].Median
				gap := worseBy(m, b, v)
				verdict := "ok"
				switch {
				case gap <= m.Bound:
				case math.Abs(v-b) < m.Floor:
					verdict = "ok (closer than the metric's floor)"
				default:
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Fprintf(w, "  %-16s set %d %-14s worse by %+7.2f%%, bound %5.1f%%  %s\n",
					r.Name, s+1, m.Name, gap*100, m.Bound*100, verdict)
			}
		}
	}
	return ok
}
