package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"tlt/internal/stats"
)

// This file is the parallel run executor. Every figure is a grid of
// independent simulations (variant × seed × sweep point); each cell owns
// its sim, network, RNGs and recorder, so cells are embarrassingly
// parallel. RunGrid fans cells across a worker limit and returns results
// in input order, and the sweep builder below keeps all row formatting
// in deterministic registration-order folds — so a report rendered with
// 16 workers is byte-identical to a serial one.

// procsSem is the session-wide concurrency limit, shared by every
// RunGrid call with default options. Sharing one semaphore is what lets
// `-exp all` interleave cells from all experiments: small figures don't
// serialize behind big ones, they compete for the same worker slots.
// A slot's token is its arena (arena.go): the channel starts full, a
// cell receives a token to run and sends it back when done.
var (
	procsMu  sync.Mutex
	procsSem chan *arena
)

// SetProcs sets the shared worker limit for subsequent grids (n < 1 is
// clamped to 1). Call it before runs start — e.g. from the -procs flag
// or a test — not while a grid is in flight.
func SetProcs(n int) {
	if n < 1 {
		n = 1
	}
	procsMu.Lock()
	procsSem = newSlots(n)
	procsMu.Unlock()
}

// Procs returns the shared worker limit (default runtime.GOMAXPROCS).
func Procs() int {
	return cap(sharedSem())
}

// sessionShards is the default per-run shard count grids apply to cells
// that don't pin their own (the -shards flag). Guarded by procsMu with
// the semaphore since both are set at session start.
var sessionShards = 1

// SetShards sets the session default shard count for subsequent grids
// (n < 1 is clamped to 1). Like SetProcs, call before runs start.
func SetShards(n int) {
	if n < 1 {
		n = 1
	}
	procsMu.Lock()
	sessionShards = n
	procsMu.Unlock()
}

// Shards returns the session default shard count.
func Shards() int {
	procsMu.Lock()
	defer procsMu.Unlock()
	return sessionShards
}

// AutoShards picks a shard count for this host: one event loop per CPU,
// capped at the default leaf-spine's 12 ToRs — the partitioner assigns
// whole switches, so shards beyond the leaf count sit idle. Degrades to
// 1 on a single-core host (sharding only costs mailbox traffic there).
func AutoShards() int {
	n := runtime.NumCPU()
	if n > 12 {
		n = 12
	}
	if n < 1 {
		n = 1
	}
	return n
}

// sessionMMU/sessionFC are the session default switch MMU and
// flow-control policy names (the -mmu / -fc flags); "" keeps each
// variant's own setting. Guarded by procsMu like the other session
// defaults.
var sessionMMU, sessionFC string

// SetPolicies sets the session default buffer policy and flow control
// for subsequent grids. Either may be "" to leave variants untouched.
// Like SetProcs, call before runs start.
func SetPolicies(mmuName, fcName string) {
	procsMu.Lock()
	sessionMMU, sessionFC = mmuName, fcName
	procsMu.Unlock()
}

// policies returns the session default MMU and flow-control names.
func policies() (mmuName, fcName string) {
	procsMu.Lock()
	defer procsMu.Unlock()
	return sessionMMU, sessionFC
}

func sharedSem() chan *arena {
	procsMu.Lock()
	defer procsMu.Unlock()
	if procsSem == nil {
		procsSem = newSlots(runtime.GOMAXPROCS(0))
	}
	return procsSem
}

// GridOpts tunes one RunGrid call.
type GridOpts struct {
	// Procs, when positive, runs this grid on a private worker limit of
	// that size instead of the shared session limit.
	Procs int
}

// RunGrid executes every cell and returns the results in input order,
// regardless of completion order. Cells with no explicit fault plan or
// audit flag inherit the session harness settings (-chaos / -audit). A
// panicking cell yields a Result with Panicked set and a replay note
// instead of tearing down the grid.
func RunGrid(cells []RunConfig, opts GridOpts) []*Result {
	if len(cells) == 0 {
		return nil
	}
	sem := sharedSem()
	if opts.Procs > 0 {
		sem = newSlots(opts.Procs)
	}
	hp, ha := harnessSettings()
	smmu, sfc := policies()
	results := make([]*Result, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		rc := cells[i]
		if rc.Faults == nil {
			rc.Faults = hp
		}
		if ha {
			rc.Audit = true
		}
		if rc.Shards == 0 {
			rc.Shards = Shards()
		}
		// Session policy overrides (-mmu / -fc) apply to cells whose
		// variant doesn't pin its own, mirroring the fault/audit fold.
		if rc.Variant.MMU == "" {
			rc.Variant.MMU = smmu
		}
		if rc.Variant.FC == "" {
			rc.Variant.FC = sfc
		}
		wg.Add(1)
		go func(i int, rc RunConfig) {
			defer wg.Done()
			rc.mem = <-sem
			defer func() { sem <- rc.mem }()
			// Cells and shards share the one worker budget: a sharded
			// cell borrows extra slots if any are free right now (never
			// blocking — that could deadlock the grid) and runs its
			// shard group on 1 + borrowed workers. It runs in its own
			// slot's arena; the borrowed ones go back untouched.
			var borrowed []*arena
		borrow:
			for len(borrowed) < rc.Shards-1 {
				select {
				case b := <-sem:
					borrowed = append(borrowed, b)
				default:
					break borrow // no free slot; run narrower
				}
			}
			rc.Workers = 1 + len(borrowed)
			results[i] = runCell(rc)
			for _, b := range borrowed {
				sem <- b
			}
		}(i, rc)
	}
	wg.Wait()
	return results
}

// runCell executes one cell, converting a panic (a bad config, an audit
// violation, a chaos-exposed bug) into a replayable note on an otherwise
// empty result so the remaining cells still produce a partial report.
func runCell(rc RunConfig) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			stack := strings.Split(string(debug.Stack()), "\n")
			if len(stack) > 16 {
				stack = stack[:16]
			}
			res = &Result{
				Rec:      stats.NewRecorder(),
				Panicked: true,
				Notes: []string{fmt.Sprintf(
					"seed %d (%s) PANICKED — replay with this variant and seed to debug; partial results reported without it\n%v\n%s",
					rc.Seed, rc.label(), r, strings.Join(stack, "\n"))},
			}
		}
	}()
	if rc.Custom != nil {
		return rc.Custom(rc)
	}
	return Run(rc)
}

// sweep accumulates a figure's whole grid before running any of it: the
// generator registers cells plus a fold per row group, exec() fans the
// cells out through RunGrid, and the folds then run serially in
// registration order over in-order results. Fold closures may therefore
// keep local accumulators without synchronization.
type sweep struct {
	rep   *Report
	cells []RunConfig
	folds []foldSpan
}

type foldSpan struct {
	start, n int
	fn       func([]*Result)
}

func newSweep(rep *Report) *sweep { return &sweep{rep: rep} }

// add registers seeds replicas of rc — rc.Seed = 1..seeds, the
// historical seedMetrics numbering — and a fold over their results.
func (sw *sweep) add(rc RunConfig, seeds int, fn func([]*Result)) {
	sw.span(seeds, func(i int) RunConfig {
		c := rc
		c.Seed = int64(i + 1)
		return c
	}, fn)
}

// add0 is add with 0-based seeds (the app figures' historical numbering).
func (sw *sweep) add0(rc RunConfig, seeds int, fn func([]*Result)) {
	sw.span(seeds, func(i int) RunConfig {
		c := rc
		c.Seed = int64(i)
		return c
	}, fn)
}

// cell registers a single cell with rc.Seed left as set. The fold is
// skipped when the cell panicked (its replay note still surfaces), so
// single-run figures degrade to a missing row, not a crash.
func (sw *sweep) cell(rc RunConfig, fn func(*Result)) {
	sw.span(1, func(int) RunConfig { return rc }, func(rs []*Result) {
		if rs[0] != nil && !rs[0].Panicked {
			fn(rs[0])
		}
	})
}

// span registers n cells built by mk and one fold over their results.
func (sw *sweep) span(n int, mk func(i int) RunConfig, fn func([]*Result)) {
	start := len(sw.cells)
	for i := 0; i < n; i++ {
		sw.cells = append(sw.cells, mk(i))
	}
	sw.folds = append(sw.folds, foldSpan{start: start, n: n, fn: fn})
}

// exec runs the registered grid and builds the report: folds replay in
// registration order, then per-cell notes (stall reports, incomplete
// warnings, panic captures) merge in cell order. Both orders depend only
// on registration, never on scheduling.
func (sw *sweep) exec() {
	results := RunGrid(sw.cells, GridOpts{})
	for _, f := range sw.folds {
		f.fn(results[f.start : f.start+f.n])
	}
	sw.rep.cells += len(sw.cells)
	for _, r := range results {
		if r == nil {
			continue
		}
		sw.rep.Notes = append(sw.rep.Notes, r.Notes...)
		sw.rep.events += r.EventsRun
		sw.rep.sched.Add(&r.Sched)
		sw.rep.setupWall += r.SetupWall
		sw.rep.packets += uint64(r.Ctr.EnqGreen + r.Ctr.EnqRed)
	}
}

// metricsOf folds per-cell metric vectors into per-metric columns,
// skipping panicked cells and NaN samples (a cell with no foreground
// completions yields NaN percentiles). It replaces the serial
// seedMetrics loop: same matrix, computed from pre-run results.
func metricsOf(rs []*Result, metric func(*Result) []float64) [][]float64 {
	var out [][]float64
	for _, r := range rs {
		if r == nil || r.Panicked {
			continue
		}
		m := metric(r)
		for len(out) < len(m) {
			out = append(out, nil)
		}
		for i, x := range m {
			if !isNaN(x) {
				out[i] = append(out[i], x)
			}
		}
	}
	return out
}

// col returns column i of ms, or nil when every cell panicked and the
// matrix is short — folds then render "n/a" instead of panicking.
func col(ms [][]float64, i int) []float64 {
	if i < len(ms) {
		return ms[i]
	}
	return nil
}

func isNaN(x float64) bool { return x != x }
