package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("now = %v, want 30", s.Now())
	}
}

func TestFIFOForEqualTimestamps(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestRandomOrderExecutesSorted(t *testing.T) {
	// Property: arbitrary insertion orders always execute in
	// non-decreasing time order.
	f := func(times []uint16) bool {
		s := New()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.RunAll()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 10 {
			s.After(7, rec)
		}
	}
	s.After(0, rec)
	s.RunAll()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 63 {
		t.Fatalf("now = %v, want 63", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report success")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report failure")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Stopping after firing is a no-op.
	tm2 := s.At(20, func() {})
	s.RunAll()
	if tm2.Stop() {
		t.Fatal("Stop after fire should report failure")
	}
	if tm2.Pending() {
		t.Fatal("fired timer still pending")
	}
	var zero Timer
	if zero.Stop() || zero.Pending() {
		t.Fatal("zero timer should be inert")
	}
}

func TestTimerPendingAcrossRunBoundary(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(100, func() { fired = true })
	s.Run(50)
	if fired {
		t.Fatal("timer fired before its time")
	}
	if !tm.Pending() {
		t.Fatal("timer past the horizon must stay pending")
	}
	s.Run(200)
	if !fired {
		t.Fatal("timer did not fire in the later run")
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestStopSameInstantEvent(t *testing.T) {
	// An event may cancel a timer scheduled for the very same instant;
	// the dead flag must be honoured even though the event is already in
	// the heap behind the canceller.
	s := New()
	fired := false
	var tm Timer
	s.At(10, func() { tm.Stop() })
	tm = s.At(10, func() { fired = true })
	s.RunAll()
	if fired {
		t.Fatal("same-instant cancelled timer fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
}

func TestHeapPopOrderProperty(t *testing.T) {
	// Property: random bursts of same-timestamp events pop in (time,
	// insertion) order — the scheduler must preserve FIFO inside every
	// burst, not just global time order.
	type burst struct {
		At    uint16
		Count uint8
	}
	f := func(bursts []burst) bool {
		s := New()
		type key struct {
			at  Time
			ord int
		}
		var fired []key
		ord := 0
		for _, b := range bursts {
			at := Time(b.At)
			n := int(b.Count%8) + 1
			for i := 0; i < n; i++ {
				k := key{at, ord}
				ord++
				s.At(at, func() { fired = append(fired, k) })
			}
		}
		s.RunAll()
		if len(fired) != ord {
			return false
		}
		want := append([]key(nil), fired...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].ord < want[j].ord
		})
		for i := range fired {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.Run(15)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 15", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %v after RunAll", fired)
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {
			n++
			if n == 3 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	// Run resumes after Stop.
	s.RunAll()
	if n != 10 {
		t.Fatalf("executed %d events after resume, want 10", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(50, func() {})
	})
	s.RunAll()
}

// logKind appends its int arg to the []int its target points at.
var logKind = NewKind(func(tgt, arg any) {
	log := tgt.(*[]int)
	*log = append(*log, arg.(int))
})

func TestPostKind(t *testing.T) {
	s := New()
	var got []int
	id := s.RegisterTarget(&got)
	s.PostKind(5, logKind, id, 42)
	s.PostKind(3, logKind, id, 7)
	s.RunAll()
	if len(got) != 2 || got[0] != 7 || got[1] != 42 {
		t.Fatalf("got %v", got)
	}
}

// TestFarTimerStopReclaimsAtOnce: a timer beyond the wheel's span waits in
// far; Stop must cut it out there and then — no tombstone left to pop —
// and leave the other far timers firing in (time, seq) order.
func TestFarTimerStopReclaimsAtOnce(t *testing.T) {
	s := New()
	var got []int
	far := Time(wheelSpan) + 500
	var tms []Timer
	for i := 0; i < 5; i++ {
		i := i
		// Later ids fire earlier, except 3 and 4 which share an instant.
		at := far + Time(10*(4-i))
		if i == 4 {
			at = far + 10
		}
		tms = append(tms, s.At(at, func() { got = append(got, i) }))
	}
	if s.Sched.HeapMax != 5 || s.Pending() != 5 {
		t.Fatalf("HeapMax=%d Pending=%d, want 5 far-resident timers", s.Sched.HeapMax, s.Pending())
	}
	if !tms[2].Stop() {
		t.Fatal("Stop on a far-resident timer reported failure")
	}
	if tms[2].Pending() || s.Pending() != 4 {
		t.Fatalf("after Stop: timer pending=%v, Pending()=%d, want false and 4", tms[2].Pending(), s.Pending())
	}
	if s.Sched.DeadReclaimed != 1 || len(s.far) != 4 {
		t.Fatalf("DeadReclaimed=%d len(far)=%d, want 1 and 4", s.Sched.DeadReclaimed, len(s.far))
	}
	if tms[2].Stop() {
		t.Fatal("second Stop reported success")
	}
	s.RunAll()
	if want := []int{3, 4, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if s.Pending() != 0 || len(s.far) != 0 {
		t.Fatalf("Pending()=%d len(far)=%d after drain", s.Pending(), len(s.far))
	}
}

// rearmKind logs its id and, the first time id 0 fires, re-arms its own
// external event past the wheel span between two same-instant peers.
var rearmKind EventKind

func init() {
	rearmKind = NewKind(func(tgt, arg any) { tgt.(*rearmTgt).fire(arg.(int)) })
}

type rearmTgt struct {
	s     *Sim
	id    uint32
	ext   *Event
	at    Time
	log   []int
	times []Time
}

func (r *rearmTgt) fire(id int) {
	r.log = append(r.log, id)
	r.times = append(r.times, r.s.Now())
	switch {
	case id == 0 && r.s.Now() < r.at:
		r.s.PostKind(r.at, rearmKind, r.id, 1)
		r.s.Schedule(r.ext, r.at)
		r.s.PostKind(r.at, rearmKind, r.id, 2)
	case id == 1:
		// Scheduled at the instant itself, after window entry: straight
		// into level 0, behind everything that came in from far.
		r.s.PostKind(r.at, rearmKind, r.id, 3)
	}
}

// TestKindEventRearmAcrossWheelSpan: an external typed event re-armed from
// its own handler across the 2^32 ns boundary waits in far, enters the
// wheel with its window, and fires exactly once there, in seq order among
// the peers sharing its instant.
func TestKindEventRearmAcrossWheelSpan(t *testing.T) {
	s := New()
	r := &rearmTgt{s: s, at: Time(wheelSpan) + 12345}
	r.id = s.RegisterTarget(r)
	r.ext = s.NewKindEvent(rearmKind, r.id, 0)
	tm := s.Schedule(r.ext, 1000)
	if !tm.Pending() {
		t.Fatal("Schedule returned a non-pending handle")
	}
	s.Run(2000)
	if tm.Pending() || !r.ext.Scheduled() || s.Sched.HeapMax != 3 {
		t.Fatalf("after first fire: stale handle pending=%v, re-armed=%v, HeapMax=%d (want false, true, 3)",
			tm.Pending(), r.ext.Scheduled(), s.Sched.HeapMax)
	}
	s.RunAll()
	if want := []int{0, 1, 0, 2, 3}; !reflect.DeepEqual(r.log, want) {
		t.Fatalf("fired %v, want %v", r.log, want)
	}
	for i, at := range r.times[1:] {
		if at != r.at {
			t.Fatalf("firing %d at %v, want %v", i+1, at, r.at)
		}
	}
	if s.Pending() != 0 || r.ext.Scheduled() {
		t.Fatalf("Pending()=%d, ext scheduled=%v after drain", s.Pending(), r.ext.Scheduled())
	}
}

// poisonKind exists so the canary below covers dynamic-kind events; the
// handler body never matters, only what release leaves behind.
var poisonKind = NewKind(func(tgt, arg any) { tgt.(*poisonTgt).hits++ })

type poisonTgt struct{ hits int }

// TestReleasePoisonsPooledEvents is the pool-poison canary: after a
// pooled event fires, release must clear the payload reference (arg)
// and reset kind/tgt, or a recycled node would pin app
// objects — fatal at million-flow scale — and could dispatch through a
// stale kind. External (caller-owned) events keep their binding by
// design and must NOT be pushed onto the pool.
func TestReleasePoisonsPooledEvents(t *testing.T) {
	s := New()
	tgt := &poisonTgt{}
	tgtID := s.RegisterTarget(tgt)
	fired := 0
	s.Post(1, func() { fired++ })
	s.PostKind(3, poisonKind, tgtID, 7)
	ext := s.NewKindEvent(poisonKind, tgtID, 9)
	s.Schedule(ext, 4)
	s.RunAll()
	if fired != 1 || tgt.hits != 2 {
		t.Fatalf("fired=%d hits=%d, want 1 and 2", fired, tgt.hits)
	}
	n := 0
	for ev := s.free; ev != nil; ev = ev.next {
		n++
		if ev == ext {
			t.Fatal("external event leaked onto the pool free list")
		}
		if ev.arg != nil {
			t.Fatalf("pooled event %d retains payload: arg=%v", n, ev.arg)
		}
		if ev.kind != 0 || ev.tgt != 0 {
			t.Fatalf("pooled event %d retains dispatch state: kind=%d tgt=%d", n, ev.kind, ev.tgt)
		}
		if ev.prev != nil {
			t.Fatalf("pooled event %d retains prev link", n)
		}
		if ev.where != evFree {
			t.Fatalf("pooled event %d has where=%#x, want evFree", n, ev.where)
		}
	}
	if n < 2 {
		t.Fatalf("free list has %d events, expected the 2 fired pooled events back", n)
	}
	// The external event idles released-but-bound: re-armable, payload
	// intact, ext flag preserved.
	if ext.state() != evFree || !ext.isExt() {
		t.Fatalf("external event state=%#x isExt=%v after fire", ext.state(), ext.isExt())
	}
	if ext.kind != poisonKind || ext.tgt != tgtID || ext.arg != any(9) {
		t.Fatal("external event lost its kind/tgt/arg binding")
	}
	s.Schedule(ext, s.Now()+1)
	s.RunAll()
	if tgt.hits != 3 {
		t.Fatalf("re-armed external event did not fire: hits=%d", tgt.hits)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() || a.Intn(100) != b.Intn(100) {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExpDurationMean(t *testing.T) {
	g := NewRNG(1)
	const mean = Time(1000)
	var sum int64
	const n = 200_000
	for i := 0; i < n; i++ {
		d := g.ExpDuration(mean)
		if d < 1 {
			t.Fatal("duration below 1ns")
		}
		sum += int64(d)
	}
	got := float64(sum) / n
	if got < 950 || got > 1050 {
		t.Fatalf("empirical mean %.1f, want ~1000", got)
	}
}

func BenchmarkScheduler(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+Time(rng.Intn(1000)), fn)
		if s.Pending() > 1024 {
			s.Run(s.Now() + 500)
		}
	}
	s.RunAll()
}

// Event-node chunks pass from a finished Sim to the next through a Mem:
// zeroed, pending events dropped, and only the chunks the last Sim used.
func TestMemHandsChunksOn(t *testing.T) {
	var m Mem
	a := New()
	fired := 0
	for i := 0; i < 300; i++ { // three chunks' worth, all pending
		a.Post(Time(10+i), func() { fired++ })
	}
	a.Run(100)
	a.Release(&m)
	if len(m.chunks) != 3 {
		t.Fatalf("released %d chunks, want 3", len(m.chunks))
	}
	for _, c := range m.chunks {
		for i := range c {
			if c[i] != (Event{}) {
				t.Fatalf("released node not zeroed: %+v", c[i])
			}
		}
	}

	b := New()
	b.Adopt(&m)
	for i := 0; i < 130; i++ { // needs two of the three
		b.Post(Time(i), func() { fired++ })
	}
	fired = 0
	allocs := testing.AllocsPerRun(1, func() { b.Post(500, func() {}) })
	b.RunAll()
	if fired != 130 {
		t.Fatalf("fired %d events on adopted nodes, want 130 (and none of the first Sim's)", fired)
	}
	if allocs != 0 {
		t.Fatalf("scheduling on adopted chunks allocated %v times", allocs)
	}
	b.Release(&m)
	if len(m.chunks) != 2 {
		t.Fatalf("second release handed on %d chunks, want the 2 it used", len(m.chunks))
	}
}
