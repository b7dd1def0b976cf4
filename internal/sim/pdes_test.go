package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// callKind runs its target, a func(any) registered on the destination
// shard, with the event's arg: the tests' stand-in for a model kind.
var callKind = NewKind(func(tgt, arg any) { tgt.(func(any))(arg) })

// pingPong builds the same toy model on an n-shard group: two nodes
// exchanging messages with a cross-node latency equal to the lookahead,
// each firing a few same-instant local events to exercise intra-window
// ordering. Node a lives on shard 0, node b on the last shard (the same
// shard when n == 1). It returns the observed event log.
func pingPong(n int, rounds int) []string {
	const la = Time(100)
	g := NewGroup(n, la)
	sa, sb := g.Shard(0), g.Shard(n-1)
	ashard, bshard := 0, n-1
	var log []string
	var key uint64
	send := func(src, dst int, at Time, label string, tgt uint32) {
		key++
		g.SendKind(src, dst, at, key, callKind, tgt, label)
	}
	var pingID, pongID uint32
	left := rounds
	ping := func(v any) {
		log = append(log, fmt.Sprintf("%d ping %v", sb.Now(), v))
		sb.Post(sb.Now()+3, func() { log = append(log, fmt.Sprintf("%d b-local", sb.Now())) })
		send(bshard, ashard, sb.Now()+la, v.(string)+"'", pongID)
	}
	pong := func(v any) {
		log = append(log, fmt.Sprintf("%d pong %v", sa.Now(), v))
		left--
		if left == 0 {
			g.RequestStop()
			return
		}
		sa.Post(sa.Now()+1, func() { log = append(log, fmt.Sprintf("%d a-local", sa.Now())) })
		send(ashard, bshard, sa.Now()+la, fmt.Sprintf("r%d", rounds-left), pingID)
	}
	pingID, pongID = sb.RegisterTarget(ping), sa.RegisterTarget(pong)
	sa.Post(0, func() { send(ashard, bshard, la, "r0", pingID) })
	g.Run(1 << 40)
	return log
}

// The tentpole invariant: the event log is byte-identical no matter how
// many shards the model is split across.
func TestGroupShardCountInvariant(t *testing.T) {
	one := pingPong(1, 6)
	if len(one) == 0 {
		t.Fatal("model produced no events")
	}
	for _, n := range []int{2, 3, 4} {
		if got := pingPong(n, 6); !reflect.DeepEqual(one, got) {
			t.Fatalf("%d-shard log differs from 1-shard:\n1: %v\n%d: %v", n, one, n, got)
		}
	}
}

// Same-instant hand-offs must inject in key order, not send order.
func TestGroupInjectionKeyOrder(t *testing.T) {
	g := NewGroup(2, 10)
	var log []int
	rec := g.Shard(1).RegisterTarget(func(v any) { log = append(log, v.(int)) })
	// Shard 0 sends keys out of order at the same arrival instant.
	g.Shard(0).Post(0, func() {
		g.SendKind(0, 1, 10, 7, callKind, rec, 7)
		g.SendKind(0, 1, 10, 3, callKind, rec, 3)
		g.SendKind(0, 1, 10, 5, callKind, rec, 5)
	})
	g.Run(1 << 20)
	if want := []int{3, 5, 7}; !reflect.DeepEqual(log, want) {
		t.Fatalf("injection order = %v, want %v", log, want)
	}
}

// A stop request mid-window must not cut the window short: remaining
// events in the window still run, and nothing runs after the barrier.
func TestGroupStopLatchesAtBarrier(t *testing.T) {
	g := NewGroup(2, 100)
	var ran []string
	g.Shard(0).Post(5, func() {
		ran = append(ran, "stopper")
		g.RequestStop()
	})
	g.Shard(1).Post(50, func() { ran = append(ran, "same-window") })
	g.Shard(1).Post(500, func() { ran = append(ran, "next-window") })
	end := g.Run(1 << 20)
	want := []string{"stopper", "same-window"}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if !g.Stopping() {
		t.Fatal("stop not latched")
	}
	if g.Shard(0).Now() != end || g.Shard(1).Now() != end {
		t.Fatalf("clocks not aligned: %v %v end %v",
			g.Shard(0).Now(), g.Shard(1).Now(), end)
	}
}

// The horizon bounds every window, and clocks align to the group end.
func TestGroupHorizonAndAlignment(t *testing.T) {
	g := NewGroup(3, 1000)
	var hits int
	g.Shard(0).Post(10, func() { hits++ })
	g.Shard(1).Post(20, func() { hits++ })
	g.Shard(2).Post(5000, func() { hits++ }) // beyond horizon
	end := g.Run(100)
	if hits != 2 {
		t.Fatalf("ran %d events, want 2", hits)
	}
	if end != 20 {
		t.Fatalf("end = %v, want 20", end)
	}
	for i := 0; i < 3; i++ {
		if g.Shard(i).Now() != end {
			t.Fatalf("shard %d clock %v != end %v", i, g.Shard(i).Now(), end)
		}
	}
}

// Parallel windows (workers > 1) must produce the same log as
// sequential execution of the same group size.
func TestGroupWorkersDeterministic(t *testing.T) {
	run := func(workers int) []string {
		const la = Time(50)
		g := NewGroup(4, la)
		g.SetWorkers(workers)
		logs := make([][]string, 4) // per-shard logs: no cross-worker writes
		keys := make([]uint64, 4)   // per-shard key counters, ditto
		ids := make([]uint32, 4)    // shard i's bounce, registered on shard i
		for i := 0; i < 4; i++ {
			i := i
			s := g.Shard(i)
			ids[i] = s.RegisterTarget(func(v any) {
				hop := v.(int)
				logs[i] = append(logs[i], fmt.Sprintf("s%d t%d hop%d", i, s.Now(), hop))
				if hop < 20 {
					keys[i]++
					next := (i + 1) % 4
					g.SendKind(i, next, s.Now()+la, keys[i]<<8|uint64(i), callKind, ids[next], hop+1)
				}
			})
			s.PostKind(Time(i), callKind, ids[i], 0)
		}
		g.Run(1 << 30)
		var all []string
		for _, l := range logs {
			all = append(all, l...)
		}
		return all
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("no events")
	}
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d log differs:\nseq: %v\ngot: %v", w, seq, got)
		}
	}
}

// The one-shard rule, pinned directly: a hand-off sent in window k fires
// after every same-instant event posted in window k and before any posted
// in window k+1, same-instant hand-offs fire in key order, and a hand-off
// that is the only pending work still opens a window. A direct post at
// send time, a flush in send order, a flush after the window bound is
// taken or one a window late each reorders the log or loses its tail.
func TestGroupOneShardHandOffOrder(t *testing.T) {
	const la = Time(100)
	g := NewGroup(1, la)
	s := g.Shard(0)
	var log []string
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%d %s", s.Now(), what)) }
	}
	var hand uint32
	send := func(at Time, key uint64) { g.SendKind(0, 0, at, key, callKind, hand, key) }
	hand = s.RegisterTarget(func(v any) {
		key := v.(uint64)
		note(fmt.Sprintf("hand-off %d", key))()
		if key == 1 {
			send(s.Now()+la, 2) // the last work left: must still fire
		}
	})
	// Window 0 runs [0, 99]: everything posted in it for instants 100
	// and 150 precedes the hand-offs it sends there.
	s.Post(0, func() {
		s.Post(100, func() {
			note("w0-early")()
			s.Post(150, note("w1")) // posted in window 1: after hand-off 1
		})
		send(100, 9)
		send(100, 4)
		send(150, 1)
		send(100, 6)
	})
	s.Post(50, func() {
		s.Post(100, note("w0-late"))
		s.Post(150, note("w0-late-150"))
	})
	g.Run(1 << 20)
	want := []string{
		"100 w0-early", "100 w0-late", "100 hand-off 4", "100 hand-off 6", "100 hand-off 9",
		"150 w0-late-150", "150 hand-off 1", "150 w1",
		"250 hand-off 2",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("one-shard order:\n got %q\nwant %q", log, want)
	}
}

// A few thousand hand-offs from 4 source shards, interleaved at equal
// instants and sent in shuffled key order, are injected into each
// destination in exact (at, key) order.
func TestGroupInjectionSortsInterleavedSources(t *testing.T) {
	const (
		n      = 4
		la     = Time(100)
		perSrc = 1000
	)
	type hit struct {
		at  Time
		key uint64
	}
	g := NewGroup(n, la)
	logs := make([][]hit, n)
	ids := make([]uint32, n)
	for d := range ids {
		s := g.Shard(d)
		ids[d] = s.RegisterTarget(func(v any) { logs[d] = append(logs[d], hit{s.Now(), v.(uint64)}) })
	}
	rng := rand.New(rand.NewSource(1))
	sent := 0
	for src := 0; src < n; src++ {
		keys := rng.Perm(perSrc)
		g.Shard(src).Post(0, func() {
			for _, k := range keys {
				key := uint64(k)<<2 | uint64(src)
				dst := int(key>>2) % n
				g.SendKind(src, dst, la+Time(key%5), key, callKind, ids[dst], key)
			}
		})
		sent += perSrc
	}
	g.Run(1 << 20)
	got := 0
	for d, l := range logs {
		got += len(l)
		if !slices.IsSortedFunc(l, func(a, b hit) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.key, b.key))
		}) {
			t.Fatalf("shard %d: hand-offs fired out of (at, key) order", d)
		}
		for _, h := range l {
			if h.at != la+Time(h.key%5) {
				t.Fatalf("shard %d: key %d fired at %v, sent for %v", d, h.key, h.at, la+Time(h.key%5))
			}
		}
	}
	if got != sent {
		t.Fatalf("%d hand-offs fired, %d sent", got, sent)
	}
}

// Releasing a group whose hand-offs are still deferred (a stop latched
// before the barrier that would schedule them) drops them: no payload
// stays reachable through the group or the released memory.
func TestGroupReleaseDropsDeferredHandOffs(t *testing.T) {
	type payload struct {
		buf  [64]byte
		next *payload
	}
	g := NewGroup(1, 100)
	s := g.Shard(0)
	freed := make(chan struct{})
	func() {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { close(freed) })
		s.PostKind(0, callKind, s.RegisterTarget(func(v any) {
			g.SendKind(0, 0, 100, 1, callKind, 0, v)
			g.RequestStop()
		}), p)
	}()
	g.Run(1 << 20)
	if s.handHead == nil {
		t.Fatal("hand-off was not left deferred")
	}
	var m Mem
	g.Release(0, &m)
	if s.handHead != nil || s.handTail != nil {
		t.Fatal("Release kept the deferred list")
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(g)
			runtime.KeepAlive(&m)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("a deferred hand-off's payload is still reachable after Release")
		}
	}
}
