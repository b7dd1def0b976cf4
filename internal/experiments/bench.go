package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// BenchRecord is one bench-pipeline measurement: an experiment run at a
// known scale and worker limit, with wall-clock, event throughput, and
// allocation attribution per grid cell.
type BenchRecord struct {
	Experiment     string  `json:"experiment"`
	Procs          int     `json:"procs"`
	Cells          int     `json:"cells"`
	Rows           int     `json:"rows"`
	WallSeconds    float64 `json:"wall_seconds"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerCell  float64 `json:"allocs_per_cell"`
	AllocMBPerCell float64 `json:"alloc_mb_per_cell"`

	// SetupWallSeconds is the summed per-cell construction wall-clock
	// (topology build, flow registration) before event loops start —
	// the cost the fabric-blueprint cache attacks. Packets is total
	// switch enqueues, so events/packets gives a per-packet event cost.
	// Both absent (zero) in records from before the blueprint runner.
	SetupWallSeconds float64 `json:"setup_wall_seconds,omitempty"`
	Packets          uint64  `json:"packets,omitempty"`

	// HeapAllocBytes is the live heap right after the run; PeakHeapBytes
	// is the largest live heap a ~20ms sampler observed during it. Peak
	// is the number the bounded-memory experiments gate on: a streaming
	// run that accidentally retains per-flow state shows up here even
	// when the post-run live heap looks innocent. Absent (zero) in
	// records from before the scale runner.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	PeakHeapBytes  uint64 `json:"peak_heap_bytes,omitempty"`

	// Shards is the per-run shard count the entry executed with, and
	// ShardEvents the per-shard event totals over the grid — a direct
	// read on partition balance. Repeats is how many times the entry
	// ran; the record keeps the run with the median events/s. Absent
	// (zero/omitted) in records from before the sharded runner.
	Shards      int      `json:"shards,omitempty"`
	Repeats     int      `json:"repeats,omitempty"`
	ShardEvents []uint64 `json:"shard_events,omitempty"`

	// MMU and FC record the session policy overrides (-mmu / -fc) the
	// entry ran under, so bench history distinguishes buffer-policy
	// regimes. Empty means each variant's own (default) policies.
	MMU string `json:"mmu,omitempty"`
	FC  string `json:"fc,omitempty"`

	// Scheduler-internal counters aggregated over the grid (see
	// sim.SchedStats).
	DeadReclaimed uint64 `json:"dead_reclaimed"`
	Cascades      uint64 `json:"cascades"`
	HeapMax       int    `json:"heap_max"`
}

// BenchFile is the on-disk artifact format (BENCH_<tag>.json): the host
// fingerprint needed to interpret the numbers plus one record per run.
type BenchFile struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Note       string        `json:"note,omitempty"`
	Records    []BenchRecord `json:"records"`
}

// MeasureEntry runs one experiment at the given scale under the current
// worker limit and returns its bench record alongside the report.
// Allocation figures are process-wide runtime.MemStats deltas divided by
// the grid cell count — approximate, so measure entries one at a time
// (cmd/tltsim runs entries sequentially whenever -bench-out is set).
func MeasureEntry(e Entry, scale Scale) (BenchRecord, *Report) {
	return MeasureEntryN(e, scale, 1)
}

// MeasureEntryN is MeasureEntry repeated: the entry runs repeats times
// and the record kept is the run with the median events/s, so one
// descheduled run doesn't skew a regression gate. The record's Repeats
// field says how many runs backed it.
func MeasureEntryN(e Entry, scale Scale, repeats int) (BenchRecord, *Report) {
	if repeats < 1 {
		repeats = 1
	}
	recs := make([]BenchRecord, 0, repeats)
	reps := make([]*Report, 0, repeats)
	for i := 0; i < repeats; i++ {
		rec, rep := measureOnce(e, scale)
		recs = append(recs, rec)
		reps = append(reps, rep)
	}
	// Median by events/s: order run indices, take the middle one.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return recs[order[a]].EventsPerSec < recs[order[b]].EventsPerSec
	})
	mid := order[len(order)/2]
	rec := recs[mid]
	rec.Repeats = repeats
	return rec, reps[mid]
}

func measureOnce(e Entry, scale Scale) (BenchRecord, *Report) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := make(chan uint64, 1)
	stop := make(chan struct{})
	go func() {
		// Peak-heap sampler: cheap enough at 20ms to leave on for every
		// bench run, fine-grained enough to catch a transient balloon.
		var ms runtime.MemStats
		var max uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	start := time.Now()
	rep := RunEntry(e, scale)
	wall := time.Since(start).Seconds()
	close(stop)
	peakHeap := <-peak
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peakHeap {
		peakHeap = after.HeapAlloc
	}

	cells, events := rep.GridStats()
	sched := rep.SchedStats()
	mmuName, fcName := Policies()
	rec := BenchRecord{
		Experiment:       e.ID,
		Procs:            Procs(),
		Shards:           Shards(),
		MMU:              mmuName,
		FC:               fcName,
		ShardEvents:      rep.ShardEvents(),
		Cells:            cells,
		Rows:             len(rep.Rows),
		WallSeconds:      wall,
		Events:           events,
		SetupWallSeconds: rep.SetupWall().Seconds(),
		Packets:          rep.Packets(),
		HeapAllocBytes:   after.HeapAlloc,
		PeakHeapBytes:    peakHeap,
		DeadReclaimed:    sched.DeadReclaimed,
		Cascades:         sched.Cascades,
		HeapMax:          sched.HeapMax,
	}
	if wall > 0 {
		rec.EventsPerSec = float64(events) / wall
	}
	if cells > 0 {
		rec.AllocsPerCell = float64(after.Mallocs-before.Mallocs) / float64(cells)
		rec.AllocMBPerCell = float64(after.TotalAlloc-before.TotalAlloc) / float64(cells) / 1e6
	}
	return rec, rep
}

// WriteBenchFile writes records plus the host fingerprint as indented
// JSON to path.
func WriteBenchFile(path, note string, recs []BenchRecord) error {
	f := BenchFile{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
		Records:    recs,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
