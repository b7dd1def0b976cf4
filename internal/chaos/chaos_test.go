package chaos

import (
	"strings"
	"testing"

	"tlt/internal/fabric"
	_ "tlt/internal/fabric/mmu"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
)

const us = sim.Time(1000)

// horizon is the run horizon every test resolves its plan against and
// runs to; all test traffic and faults end well inside it.
const horizon = 10 * sim.Millisecond

// rxCount counts packet arrivals for one flow.
type rxCount struct {
	n    int
	last sim.Time
	s    *sim.Sim
}

func (r *rxCount) Handle(pkt *packet.Packet) {
	r.n++
	r.last = r.s.Now()
}

// starRun builds a 4-host star, streams pkts green data packets from
// host 0 to host 1 at the given spacing, applies plan, and runs to the
// horizon. Returns deliveries and the engine counters.
func starRun(t *testing.T, plan *Plan, runSeed int64, pkts int, spacing sim.Time) (*rxCount, stats.FaultCounters, *topo.Network) {
	t.Helper()
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts:       4,
		LinkRateBps: 40e9,
		LinkDelay:   5 * us,
		Switch:      fabric.SwitchConfig{BufferBytes: 300_000, Alpha: 1},
	})
	rx := &rxCount{s: s}
	net.Hosts[1].Register(1, rx)
	for i := 0; i < pkts; i++ {
		i := i
		s.At(sim.Time(i)*spacing, func() {
			net.Hosts[0].Send(&packet.Packet{
				Flow: 1, Dst: 1, Type: packet.Data,
				Mark: packet.ImportantData, Len: 1000, Seq: int64(i),
			})
		})
	}
	eng, err := plan.ApplyResolved(net, runSeed, horizon)
	if err != nil {
		t.Fatalf("ApplyResolved: %v", err)
	}
	s.Run(horizon)
	return rx, eng.Counters(), net
}

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("seed=42;" +
		"flap:link=rand,at=1ms,down=200us,every=2ms,count=5,until=20ms;" +
		"ge:link=all,pgb=0.001,pbg=0.1,loss=0.3,lossgood=0.01,start=1ms,stop=5ms;" +
		"shrink:switch=0,at=1ms,dur=500us,frac=0.25,every=3ms,count=2;" +
		"freeze:host=3,at=2ms,dur=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d, want 42", p.Seed)
	}
	f := p.Flaps[0]
	if f.Link != RandomTarget || f.At != 1000*us || f.Down != 200*us ||
		f.Every != 2000*us || f.Count != 5 || f.Until != 20000*us {
		t.Errorf("flap = %+v", f)
	}
	b := p.Bursty[0]
	if b.Link != AllTargets || b.PGoodBad != 0.001 || b.PBadGood != 0.1 ||
		b.LossBad != 0.3 || b.LossGood != 0.01 || b.Start != 1000*us || b.Stop != 5000*us {
		t.Errorf("ge = %+v", b)
	}
	sh := p.Shrinks[0]
	if sh.Switch != 0 || sh.Frac != 0.25 || sh.Duration != 500*us || sh.Every != 3000*us || sh.Count != 2 {
		t.Errorf("shrink = %+v", sh)
	}
	fr := p.Freezes[0]
	if fr.Host != 3 || fr.At != 2000*us || fr.Duration != 1000*us {
		t.Errorf("freeze = %+v", fr)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ spec, wantErr string }{
		{"explode:at=1ms", "unknown directive"},
		{"flap:down=1ms,color=red", "unknown key"},
		{"flap:at=1ms", "needs down"},
		{"ge:link=0,pgb=0.1", "needs loss"},
		{"shrink:at=1ms,dur=1ms,frac=1.5", "outside [0, 1]"},
		{"shrink:at=1ms,dur=1ms", "needs frac"},
		{"freeze:host=0,at=1ms", "needs dur"},
		{"flap:down=abc", "time"},
		{"seed=xyz", "bad seed"},
		{"swfail:switch=0,banana=1", "unknown key"},
		{"swfail:at=-1ms", "negative duration"},
		{"portfail:link=0,dir=5", "dir=0 or dir=1"},
		{"portfail:dir=zero", "invalid syntax"},
		{"storm:host=0", "needs dur"},
		{"storm:host=0,dur=-5us", "negative duration"},
		{"storm:host=0,dur=1ms,refresh=oops", "time"},
		{"ge:link=0,loss=1.5", "outside [0, 1]"},
		{"ge:link=0,loss=NaN", "outside [0, 1]"},
		{"shrink:at=1ms,dur=1ms,frac=bogus", "invalid syntax"},
		{"freeze:host=-2,at=1ms,dur=1ms", "non-negative index"},
	} {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Parse(%q) err = %v, want substring %q", tc.spec, err, tc.wantErr)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("")
	if err != nil || !p.Empty() {
		t.Fatalf("Parse(\"\") = %+v, %v; want empty plan", p, err)
	}
}

// TestFlapDropsInFlight: with a 5µs wire and sub-µs packet spacing, a
// link-down window must kill packets that were propagating when it hit.
func TestFlapDropsInFlight(t *testing.T) {
	plan := &Plan{Flaps: []LinkFlap{{Link: 0, At: 50 * us, Down: 20 * us}}}
	rx, ctr, _ := starRun(t, plan, 1, 400, 500)
	if ctr.LinkFlaps != 1 {
		t.Fatalf("LinkFlaps = %d, want 1", ctr.LinkFlaps)
	}
	if ctr.DownDrops == 0 {
		t.Fatal("no DownDrops despite packets in flight across the outage")
	}
	if rx.n >= 400 {
		t.Fatalf("delivered %d of 400, expected losses", rx.n)
	}
	if rx.n == 0 {
		t.Fatal("nothing delivered — link never came back up")
	}
}

// TestFreezeStallsWithoutLoss: an NIC freeze delays traffic but loses
// nothing; every packet arrives, the last one after the thaw.
func TestFreezeStallsWithoutLoss(t *testing.T) {
	thaw := 150 * us
	plan := &Plan{Freezes: []NICFreeze{{Host: 0, At: 10 * us, Duration: thaw - 10*us}}}
	rx, ctr, _ := starRun(t, plan, 1, 100, 500)
	if ctr.NICFreezes != 1 {
		t.Fatalf("NICFreezes = %d, want 1", ctr.NICFreezes)
	}
	if ctr.TotalInjected() != 0 {
		t.Fatalf("freeze lost %d packets, want 0", ctr.TotalInjected())
	}
	if rx.n != 100 {
		t.Fatalf("delivered %d of 100", rx.n)
	}
	if rx.last < thaw {
		t.Fatalf("last delivery at %v, before thaw %v — freeze had no effect", rx.last, thaw)
	}
}

// TestBurstyLossDrops: a Gilbert–Elliott window must cause drops inside
// the window and none after it is removed.
func TestBurstyLossDrops(t *testing.T) {
	plan := &Plan{Bursty: []BurstyLoss{{
		Link: 0, Start: 0, Stop: 100 * us,
		PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.8,
	}}}
	rx, ctr, _ := starRun(t, plan, 1, 400, 500)
	if ctr.BurstyDrops == 0 {
		t.Fatal("no Gilbert–Elliott drops in a 0.8-loss bad state over 200 packets")
	}
	if int64(rx.n)+ctr.BurstyDrops != 400 {
		t.Fatalf("delivered %d + dropped %d != 400 sent", rx.n, ctr.BurstyDrops)
	}
}

// TestShrinkRestores: the MMU capacity comes back to the configured
// value after the shrink window.
func TestShrinkRestores(t *testing.T) {
	plan := &Plan{Shrinks: []BufferShrink{{Switch: 0, At: 10 * us, Duration: 50 * us, Frac: 0.1}}}
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: us,
		Switch: fabric.SwitchConfig{BufferBytes: 100_000, Alpha: 1},
	})
	if _, err := plan.ApplyResolved(net, 1, horizon); err != nil {
		t.Fatalf("ApplyResolved: %v", err)
	}
	sw := net.Switches[0]
	s.At(30*us, func() {
		if got := sw.BufferLimit(); got != 10_000 {
			t.Errorf("mid-shrink BufferLimit = %d, want 10000", got)
		}
	})
	s.Run(horizon)
	if got := sw.BufferLimit(); got != 100_000 {
		t.Errorf("post-shrink BufferLimit = %d, want restored 100000", got)
	}
}

// TestShrinkRoutesThroughPolicy: the shrink fault mutates the switch's
// BufferPolicy, so a policy with its own capacity notion (tiny: 1/10 of
// the physical buffer) shrinks proportionally.
func TestShrinkRoutesThroughPolicy(t *testing.T) {
	plan := &Plan{Shrinks: []BufferShrink{{Switch: 0, At: 10 * us, Duration: 50 * us, Frac: 0.1}}}
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: us,
		Switch: fabric.SwitchConfig{BufferBytes: 100_000, Alpha: 1, MMU: "tiny"},
	})
	if _, err := plan.ApplyResolved(net, 1, horizon); err != nil {
		t.Fatalf("ApplyResolved: %v", err)
	}
	sw := net.Switches[0]
	if got := sw.BufferLimit(); got != 10_000 {
		t.Fatalf("tiny BufferLimit = %d, want 10000", got)
	}
	s.At(30*us, func() {
		if got := sw.BufferLimit(); got != 1_000 {
			t.Errorf("mid-shrink tiny BufferLimit = %d, want 1000 (0.1 × tiny capacity)", got)
		}
	})
	s.Run(horizon)
	if got := sw.BufferLimit(); got != 10_000 {
		t.Errorf("post-shrink tiny BufferLimit = %d, want restored 10000", got)
	}
}

// TestSwitchFailBlackHoles: a dead switch eats every data packet until
// it reboots; deliveries resume afterwards and the black-hole drops are
// counted under DropSwitchFail.
func TestSwitchFailBlackHoles(t *testing.T) {
	plan := &Plan{SwFails: []SwitchFail{{Switch: 0, At: 50 * us, Duration: 100 * us}}}
	rx, ctr, net := starRun(t, plan, 1, 400, 500)
	if ctr.SwitchFails != 1 {
		t.Fatalf("SwitchFails = %d, want 1", ctr.SwitchFails)
	}
	sw := net.Switches[0]
	if sw.Ctr.DropSwitchFail == 0 {
		t.Fatal("no DropSwitchFail despite traffic during the outage")
	}
	if sw.Failed() {
		t.Fatal("switch still failed after its repair duration")
	}
	if rx.n >= 400 {
		t.Fatalf("delivered %d of 400, expected black-hole losses", rx.n)
	}
	if rx.last < 150*us {
		t.Fatalf("last delivery at %v — traffic never resumed after reboot at 150us", rx.last)
	}
}

// TestSwitchFailPermanent: dur=0 kills the switch for good; nothing is
// delivered after the failure instant.
func TestSwitchFailPermanent(t *testing.T) {
	plan := &Plan{SwFails: []SwitchFail{{Switch: 0, At: 50 * us}}}
	rx, _, net := starRun(t, plan, 1, 400, 500)
	if !net.Switches[0].Failed() {
		t.Fatal("switch recovered from a permanent failure")
	}
	// Packets already on the wire at t=50us still land (2µs delay): allow
	// a small grace window, then silence.
	if rx.last > 60*us {
		t.Fatalf("delivery at %v, after permanent switch death at 50us", rx.last)
	}
	if rx.n == 0 {
		t.Fatal("nothing delivered before the failure")
	}
}

// TestPortFailWedgesOneDirection: portfail link=0,dir=0 wedges the
// host-0→switch transmitter (Txs[0]); the reverse direction and other
// links stay up.
func TestPortFailWedgesOneDirection(t *testing.T) {
	plan := &Plan{PtFails: []PortFail{{Link: 0, Dir: 0, At: 50 * us}}}
	rx, ctr, net := starRun(t, plan, 1, 400, 500)
	if ctr.PortFails != 1 {
		t.Fatalf("PortFails = %d, want 1", ctr.PortFails)
	}
	if !net.Txs[0].LinkDown() {
		t.Fatal("Txs[0] not down after portfail dir=0")
	}
	if net.Txs[1].LinkDown() {
		t.Fatal("portfail dir=0 also took down the reverse transmitter")
	}
	if rx.n >= 400 || rx.n == 0 {
		t.Fatalf("delivered %d of 400, want some before the failure and none after", rx.n)
	}
	// With a duration the transmitter comes back.
	plan = &Plan{PtFails: []PortFail{{Link: 0, Dir: 0, At: 50 * us, Duration: 30 * us}}}
	rx, _, net = starRun(t, plan, 1, 400, 500)
	if net.Txs[0].LinkDown() {
		t.Fatal("Txs[0] still down after repair")
	}
	if rx.last < 80*us {
		t.Fatalf("last delivery at %v — traffic never resumed after repair", rx.last)
	}
}

// TestPauseStormWedgesPort: a storming host pauses its switch port; with
// no watchdog the port stays latched for the storm duration and traffic
// toward the stormer stalls until the final resume frame.
func TestPauseStormWedgesPort(t *testing.T) {
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts:       4,
		LinkRateBps: 40e9,
		LinkDelay:   5 * us,
		Switch:      fabric.SwitchConfig{BufferBytes: 300_000, Alpha: 1},
	})
	rx := &rxCount{s: s}
	net.Hosts[0].Register(1, rx)
	for i := 0; i < 100; i++ {
		i := i
		s.At(sim.Time(i)*500, func() {
			net.Hosts[1].Send(&packet.Packet{
				Flow: 1, Dst: 0, Type: packet.Data,
				Mark: packet.ImportantData, Len: 1000, Seq: int64(i),
			})
		})
	}
	stormEnd := 300 * us
	plan := &Plan{Storms: []PauseStorm{{Host: 0, At: 10 * us, Duration: stormEnd - 10*us}}}
	eng, err := plan.ApplyResolved(net, 1, horizon)
	if err != nil {
		t.Fatalf("ApplyResolved: %v", err)
	}
	s.Run(horizon)
	ctr := eng.Counters()
	if ctr.PauseStorms != 1 {
		t.Fatalf("PauseStorms = %d, want 1", ctr.PauseStorms)
	}
	if ctr.StormFrames < 10 {
		t.Fatalf("StormFrames = %d, want a continuous refresh stream", ctr.StormFrames)
	}
	if rx.n != 100 {
		t.Fatalf("delivered %d of 100 — pause must stall, not drop", rx.n)
	}
	if rx.last < stormEnd {
		t.Fatalf("last delivery at %v, before the storm ended at %v", rx.last, stormEnd)
	}
}

// TestWatchdogFiresOnStorm is the acceptance-criteria storm test: with
// the PFC watchdog armed, an injected pause storm trips the mitigation —
// the switch flushes and unpauses the wedged port instead of latching
// for the storm's whole lifetime.
func TestWatchdogFiresOnStorm(t *testing.T) {
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts:       4,
		LinkRateBps: 40e9,
		LinkDelay:   5 * us,
		Switch: fabric.SwitchConfig{
			BufferBytes: 300_000, Alpha: 1,
			PFCWatchdog:       true,
			WatchdogThreshold: 50 * us,
		},
	})
	rx := &rxCount{s: s}
	net.Hosts[0].Register(1, rx)
	for i := 0; i < 200; i++ {
		i := i
		s.At(sim.Time(i)*500, func() {
			net.Hosts[1].Send(&packet.Packet{
				Flow: 1, Dst: 0, Type: packet.Data,
				Mark: packet.ImportantData, Len: 1000, Seq: int64(i),
			})
		})
	}
	plan := &Plan{Storms: []PauseStorm{{Host: 0, At: 10 * us, Duration: 500 * us}}}
	eng, err := plan.ApplyResolved(net, 1, horizon)
	if err != nil {
		t.Fatalf("ApplyResolved: %v", err)
	}
	s.Run(horizon)
	sw := net.Switches[0]
	if sw.Ctr.WatchdogFires == 0 {
		t.Fatal("watchdog never fired on a continuous pause storm")
	}
	if sw.Ctr.WatchdogDrops == 0 {
		t.Fatal("watchdog fired but flushed nothing despite a backlogged port")
	}
	if eng.Counters().StormFrames == 0 {
		t.Fatal("storm emitted no pause frames")
	}
	// Mitigation must beat the storm: deliveries resume well before the
	// storm's natural end at 510us would unlatch the port.
	if rx.last >= 510*us && rx.n == 0 {
		t.Fatal("no deliveries until storm end — mitigation had no effect")
	}
	if rx.n == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestValidateRejectsBadTargets: ApplyResolved must fail fast with a
// descriptive error instead of panicking on an out-of-range target.
func TestValidateRejectsBadTargets(t *testing.T) {
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: us,
		Switch: fabric.SwitchConfig{BufferBytes: 100_000, Alpha: 1},
	})
	for _, tc := range []struct {
		plan    *Plan
		wantErr string
	}{
		{&Plan{SwFails: []SwitchFail{{Switch: 7}}}, "swfail[0]: switch index 7 out of range"},
		{&Plan{Flaps: []LinkFlap{{Link: 99, Down: us}}}, "flap[0]: link index 99 out of range"},
		{&Plan{Freezes: []NICFreeze{{Host: -3, Duration: us}}}, "host index -3 out of range"},
		{&Plan{PtFails: []PortFail{{Link: 0, Dir: 2}}}, "dir 2"},
		{&Plan{Storms: []PauseStorm{{Host: 0}}}, "storm[0]"},
		{&Plan{Shrinks: []BufferShrink{{Switch: 4, Frac: 0.5, Duration: us}}}, "shrink[0]: switch index 4 out of range"},
	} {
		_, err := tc.plan.ApplyResolved(net, 1, horizon)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ApplyResolved(%+v) err = %v, want substring %q", tc.plan, err, tc.wantErr)
		}
	}
}

// TestChainCapNamesDirective: repeat chains are expanded up front, so an
// unbounded tight every= against a seconds-long horizon must be refused
// with an error naming the directive — not materialised — while the same
// period bounded by count= or until= still applies.
func TestChainCapNamesDirective(t *testing.T) {
	s := sim.New()
	net := topo.Star(s, topo.StarConfig{
		Hosts: 2, LinkRateBps: 40e9, LinkDelay: us,
		Switch: fabric.SwitchConfig{BufferBytes: 100_000, Alpha: 1},
	})
	const long = 3 * sim.Second
	ok := LinkFlap{Link: 0, At: 1000 * us, Down: us, Every: 2000 * us}
	for _, tc := range []struct {
		plan    *Plan
		wantErr string
	}{
		{&Plan{Flaps: []LinkFlap{ok, {Link: 0, At: 1000 * us, Down: 1, Every: us}}}, "flap[1]"},
		{&Plan{Shrinks: []BufferShrink{{Switch: 0, At: us, Duration: 1, Frac: 0.5, Every: us}}}, "shrink[0]"},
		{&Plan{Freezes: []NICFreeze{{Host: 0, At: us, Duration: 1, Every: us}}}, "freeze[0]"},
		{&Plan{SwFails: []SwitchFail{{Switch: 0, At: us, Duration: 1, Every: us}}}, "swfail[0]"},
		{&Plan{Flaps: []LinkFlap{{Link: 0, At: us, Down: 1, Every: us, Count: 2 * maxChain}}}, "flap[0]"},
	} {
		_, err := tc.plan.ApplyResolved(net, 1, long)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "count=") {
			t.Errorf("ApplyResolved(%+v) err = %v, want one naming %s and suggesting count=", tc.plan, err, tc.wantErr)
		}
	}
	for _, f := range []LinkFlap{
		ok, // the documented every=2ms example: 1500 occurrences
		{Link: 0, At: 1000 * us, Down: 1, Every: us, Count: 5},
		{Link: 0, At: 1000 * us, Down: 1, Every: us, Until: 1100 * us},
	} {
		if _, err := (&Plan{Flaps: []LinkFlap{f}}).ApplyResolved(net, 1, long); err != nil {
			t.Errorf("ApplyResolved(%+v): %v, want a bounded chain to apply", f, err)
		}
	}
}

// TestDeterministicFaultSequence is the acceptance-criteria core: the
// same plan and seed applied twice yield identical fault counters and
// identical deliveries, even with random target picks and probabilistic
// loss in play.
func TestDeterministicFaultSequence(t *testing.T) {
	spec := "seed=7;" +
		"flap:link=rand,at=20us,down=15us,every=60us,count=3;" +
		"ge:link=all,pgb=0.02,pbg=0.3,loss=0.5,start=0s,stop=150us;" +
		"freeze:host=rand,at=40us,dur=30us"
	plan, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	rx1, ctr1, _ := starRun(t, plan, 3, 400, 500)
	rx2, ctr2, _ := starRun(t, plan, 3, 400, 500)
	if ctr1 != ctr2 {
		t.Fatalf("counters diverged across identical runs:\n  %+v\n  %+v", ctr1, ctr2)
	}
	if rx1.n != rx2.n || rx1.last != rx2.last {
		t.Fatalf("deliveries diverged: (%d, %v) vs (%d, %v)", rx1.n, rx1.last, rx2.n, rx2.last)
	}
	if ctr1.LinkFlaps != 3 || ctr1.NICFreezes != 1 {
		t.Fatalf("schedule miscounted: %+v", ctr1)
	}

	// A different run seed must shuffle the random picks (different
	// replication), but stay deterministic in itself.
	rx3, ctr3, _ := starRun(t, plan, 4, 400, 500)
	rx4, ctr4, _ := starRun(t, plan, 4, 400, 500)
	if ctr3 != ctr4 || rx3.n != rx4.n {
		t.Fatalf("seed-4 runs diverged: %+v vs %+v", ctr3, ctr4)
	}
}
