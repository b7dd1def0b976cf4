// Command tltsim regenerates the paper's tables and figures.
//
// Usage:
//
//	tltsim -list
//	tltsim -exp fig5                 # quick scale (default)
//	tltsim -exp fig5 -bg 2000 -seeds 3
//	tltsim -exp all -full            # paper scale (slow)
//	tltsim -exp fig5 -procs 8        # cap simulation workers
//	tltsim -exp fig5 -shards 4       # shard each simulation across 4 event loops
//	tltsim -exp fig5 -shards auto    # one shard per CPU, capped at the leaf count
//	tltsim -exp all -bench-out BENCH_local.json
//	tltsim -exp fig5 -audit          # run with the invariant auditor on
//	tltsim -exp fig9 -chaos 'flap:link=rand,at=200us,down=50us,every=2ms'
//	tltsim -exp fig5 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tlt/internal/chaos"
	"tlt/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list      = flag.Bool("list", false, "list experiments")
		full      = flag.Bool("full", false, "paper scale: 10k background flows, 5 seeds")
		bg        = flag.Int("bg", 0, "override background flow count")
		seeds     = flag.Int("seeds", 0, "override seed count")
		points    = flag.Int("points", 0, "trim sweep axes to the first N points")
		format    = flag.String("format", "table", "output format: table, csv, json")
		procs     = flag.Int("procs", runtime.GOMAXPROCS(0), "max concurrent simulations")
		shards    = flag.String("shards", "1", "event-loop shards per simulation, or 'auto' = min(NumCPU, 12) (parallel DES; reports stay byte-identical across shard counts)")
		benchOut  = flag.String("bench-out", "", "write per-experiment bench records (wall clock, events/sec, allocs) to this JSON file")
		benchRep  = flag.Int("bench-repeat", 1, "run each bench entry this many times and record the median-events/s run")
		chaosSpec = flag.String("chaos", "", "fault schedule, e.g. 'flap:link=rand,at=200us,down=50us,every=2ms;seed=7'")
		mmuFlag   = flag.String("mmu", "", "switch buffer policy for all runs: ch (default), bshare, tiny")
		fcFlag    = flag.String("fc", "", "switch flow control for all runs: pfc, bfc, none ('' keeps each variant's own)")
		auditFlag = flag.Bool("audit", false, "attach the runtime invariant auditor (panics on first violation)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "-cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProf)
	}
	if *memProf != "" {
		defer writeProfile("allocs", *memProf)
	}

	var plan *chaos.Plan
	if *chaosSpec != "" {
		var err error
		plan, err = chaos.Parse(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-chaos:", err)
			os.Exit(2)
		}
	}
	nShards := experiments.AutoShards()
	if *shards != "auto" {
		var err error
		nShards, err = strconv.Atoi(*shards)
		if err != nil || nShards < 1 {
			fmt.Fprintf(os.Stderr, "-shards: want a positive integer or 'auto', got %q\n", *shards)
			os.Exit(2)
		}
	}
	if err := checkFlags(*format, *procs, *benchRep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *auditFlag && nShards > 1 {
		// On stderr, so reports stay byte-identical at any -shards.
		fmt.Fprintf(os.Stderr, "note: -audit reads the whole fabric from one event loop; every cell runs on 1 shard, not %d\n", nShards)
	}
	experiments.SetHarness(plan, *auditFlag)
	experiments.SetProcs(*procs)
	experiments.SetShards(nShards)
	experiments.SetPolicies(*mmuFlag, *fcFlag)

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	scale := experiments.QuickScale()
	if *full {
		scale = experiments.FullScale()
	}
	if *bg > 0 {
		scale.BgFlows = *bg
	}
	if *seeds > 0 {
		scale.Seeds = *seeds
	}
	if *points > 0 {
		scale.AppPoints = *points
	}

	var benchRecs []experiments.BenchRecord

	// render runs one experiment and returns its formatted output; when
	// -bench-out is set it also measures and appends a bench record.
	render := func(e experiments.Entry) string {
		var rep *experiments.Report
		start := time.Now()
		if *benchOut != "" {
			var rec experiments.BenchRecord
			rec, rep = experiments.MeasureEntryN(e, scale, *benchRep)
			benchRecs = append(benchRecs, rec)
		} else {
			rep = experiments.RunEntry(e, scale)
		}
		var b strings.Builder
		switch *format {
		case "csv":
			b.WriteString(rep.CSV())
		case "json":
			out, err := rep.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "json:", err)
				os.Exit(1)
			}
			b.WriteString(out)
			b.WriteByte('\n')
		default:
			b.WriteString(rep.String())
			fmt.Fprintf(&b, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
		return b.String()
	}

	if *exp == "all" {
		if *benchOut != "" {
			// Sequential so each entry's allocation delta is attributable.
			for _, e := range experiments.All {
				fmt.Print(render(e))
			}
		} else {
			// Run every entry concurrently: all their grids feed cells
			// into the shared worker pool, so small figures interleave
			// with large ones instead of queueing behind them. Output is
			// still printed in registry order.
			outs := make([]chan string, len(experiments.All))
			for i, e := range experiments.All {
				outs[i] = make(chan string, 1)
				go func(e experiments.Entry, ch chan<- string) {
					ch <- render(e)
				}(e, outs[i])
			}
			for _, ch := range outs {
				fmt.Print(<-ch)
			}
		}
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			os.Exit(2)
		}
		fmt.Print(render(e))
	}

	if *benchOut != "" {
		note := fmt.Sprintf("scale: bg=%d seeds=%d points=%d; procs=%d", scale.BgFlows, scale.Seeds, scale.AppPoints, *procs)
		if err := experiments.WriteBenchFile(*benchOut, note, benchRecs); err != nil {
			fmt.Fprintln(os.Stderr, "-bench-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d bench records to %s\n", len(benchRecs), *benchOut)
	}
}

// checkFlags rejects flag values that cannot be honoured: rendering some
// other format, or running on some other worker count, than the one asked
// for would be a silent default. The error names the flag and what it
// accepts.
func checkFlags(format string, procs, benchRepeat int) error {
	switch format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("-format: want table, csv or json, got %q", format)
	}
	if procs < 1 {
		return fmt.Errorf("-procs: want a positive integer, got %d", procs)
	}
	if benchRepeat < 1 {
		return fmt.Errorf("-bench-repeat: want a positive integer, got %d", benchRepeat)
	}
	return nil
}

// writeProfile dumps one named pprof profile at exit. The allocs profile
// needs a GC first so the numbers reflect everything the run allocated.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if name == "allocs" {
		runtime.GC()
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
	}
}
