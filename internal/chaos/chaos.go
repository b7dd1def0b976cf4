// Package chaos applies deterministic, seeded fault schedules to a
// running network: link down/up flaps, Gilbert–Elliott bursty loss,
// transient switch-buffer shrink, host NIC freezes, whole-switch
// failures with control-plane reroute, asymmetric single-port wedges,
// and PFC pause storms. The paper's §5 explicitly scopes TLT out of
// protecting against non-congestion losses — it must degrade gracefully
// to timeout-driven recovery — and this package exists to exercise
// exactly that boundary, reproducibly: the same plan and seed always
// yield the identical fault event sequence.
//
// A Plan is declarative; ApplyResolved resolves it against a built
// topology and posts its events onto the simulators owning the targets.
// A "link" is a full-duplex pair: topology builders append the two
// directional transmitters of every link adjacently to Network.Txs, so
// link k owns Txs[2k] and Txs[2k+1].
package chaos

import (
	"fmt"

	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/topo"
)

// RandomTarget selects a random link/switch/host per occurrence (drawn
// from the plan's seeded RNG at apply time, so still deterministic).
const RandomTarget = -1

// AllTargets applies the fault to every link/switch at once.
const AllTargets = -2

// LinkFlap takes a full-duplex link down for Down, then back up.
type LinkFlap struct {
	Link  int      // link index (Txs pair), RandomTarget for a random pick per occurrence
	At    sim.Time // first outage start
	Down  sim.Time // outage duration
	Every sim.Time // repeat period measured start-to-start (0 = once)
	Count int      // occurrences when Every > 0 (0 = unbounded)
	Until sim.Time // no occurrence starts at/after this time (0 = no bound)
}

// BurstyLoss installs a Gilbert–Elliott two-state loss channel on both
// directions of a link for a window.
type BurstyLoss struct {
	Link        int      // link index, AllTargets for every link
	Start, Stop sim.Time // active window (Stop 0 = forever)
	PGoodBad    float64  // per-packet P(good→bad)
	PBadGood    float64  // per-packet P(bad→good)
	LossGood    float64  // drop probability in the good state
	LossBad     float64  // drop probability in the bad state
}

// BufferShrink reduces a switch's effective MMU capacity for a window,
// forcing drops as if part of the shared buffer failed or was
// reconfigured away.
type BufferShrink struct {
	Switch   int      // switch index, AllTargets for every switch
	At       sim.Time // first shrink start
	Duration sim.Time // window length
	Frac     float64  // capacity multiplier in (0, 1)
	Every    sim.Time // repeat period (0 = once)
	Count    int      // occurrences when Every > 0 (0 = unbounded)
}

// NICFreeze stalls a host's NIC transmitter for a window; the wire stays
// intact, so in-flight packets still arrive and inbound traffic is
// unaffected.
type NICFreeze struct {
	Host     int // host index, RandomTarget for a random pick per occurrence
	At       sim.Time
	Duration sim.Time
	Every    sim.Time // repeat period (0 = once)
	Count    int      // occurrences when Every > 0 (0 = unbounded)
}

// SwitchFail kills a whole switch at At: every packet arriving while it
// is down black-holes, egress serialization freezes, and the MMU
// restarts empty at reboot (buffered packets are lost). Reroute models
// the control plane: that long after the failure — and again after the
// repair — static failure-aware routes are (re)installed, so the sim
// exercises both the black-hole window and the repaired path. Reroute 0
// means no alternate path is ever installed.
type SwitchFail struct {
	Switch   int      // switch index, RandomTarget for a seeded pick per occurrence
	At       sim.Time // failure instant
	Duration sim.Time // time to reboot (0 = permanent)
	Reroute  sim.Time // control-plane reconvergence delay (0 = never reroute)
	Every    sim.Time // repeat period (0 = once)
	Count    int      // occurrences when Every > 0 (0 = unbounded)
}

// PortFail wedges a single directional transmitter of a link: frames
// handed to it — and frames already in flight — are lost, while the
// reverse direction keeps working. This is the asymmetric failure mode
// (dead laser, stuck SerDes) that neither PFC nor symmetric
// link-liveness detection sees.
type PortFail struct {
	Link     int // link index, RandomTarget
	Dir      int // which direction sticks: 0 = Txs[2k], 1 = Txs[2k+1]
	At       sim.Time
	Duration sim.Time // 0 = permanent
}

// PauseStorm makes a host NIC emit continuous PFC PAUSE frames toward
// its switch for a window — wedged firmware asserting flow control
// forever — pausing the switch egress port and spreading head-of-line
// blocking upstream until the PFC watchdog (if enabled) mitigates. When
// the storm ends the stuck assertion clears (one RESUME is sent,
// standing in for quanta expiry).
type PauseStorm struct {
	Host     int // host index, RandomTarget (picked once per storm)
	At       sim.Time
	Duration sim.Time
	Refresh  sim.Time // inter-frame gap (0 = 2µs, well inside a pause quantum)
}

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed salts every chaos RNG; it combines with the run seed passed
	// to ApplyResolved so replications see different (but reproducible)
	// picks.
	Seed int64

	Flaps   []LinkFlap
	Bursty  []BurstyLoss
	Shrinks []BufferShrink
	Freezes []NICFreeze
	SwFails []SwitchFail
	PtFails []PortFail
	Storms  []PauseStorm
}

// Empty reports whether the plan injects no faults.
func (p *Plan) Empty() bool {
	return p == nil || len(p.Flaps)+len(p.Bursty)+len(p.Shrinks)+len(p.Freezes)+
		len(p.SwFails)+len(p.PtFails)+len(p.Storms) == 0
}

// Engine is an applied plan: it owns the scheduled fault events and the
// fault counters of one run.
type Engine struct {
	net *topo.Network
	rng *sim.RNG

	// Occurrence accounting. Occurrences fire on whichever shard owns
	// the target, so they cannot share a counter: every occurrence gets
	// a slot, the firing event (exactly one writer, on one shard) marks
	// it, and Counters folds the marked slots in after the run joins.
	// The slices are fully built during ApplyResolved; the run only
	// writes elements.
	slotKind    []uint8
	slotFired   []bool
	stormFrames []int64
}

// NumLinks returns the number of full-duplex links in the network.
func NumLinks(net *topo.Network) int { return len(net.Txs) / 2 }

// Validate checks every fault target against the built topology so a
// bad plan fails before the run starts, with a message naming the
// offending directive, instead of panicking mid-simulation.
func (p *Plan) Validate(net *topo.Network) error {
	if p.Empty() {
		return nil
	}
	links, sws, hosts := NumLinks(net), len(net.Switches), len(net.Hosts)
	idx := func(directive string, i, target, n int, pop string, allOK bool) error {
		switch {
		case target == RandomTarget:
			if n == 0 {
				return fmt.Errorf("chaos: %s[%d]: random target but the topology has no %ss", directive, i, pop)
			}
		case target == AllTargets:
			if !allOK {
				return fmt.Errorf("chaos: %s[%d]: %q target not supported here", directive, i, "all")
			}
			if n == 0 {
				return fmt.Errorf("chaos: %s[%d]: %q target but the topology has no %ss", directive, i, "all", pop)
			}
		case target < 0 || target >= n:
			return fmt.Errorf("chaos: %s[%d]: %s index %d out of range [0, %d)", directive, i, pop, target, n)
		}
		return nil
	}
	for i, f := range p.Flaps {
		if err := idx("flap", i, f.Link, links, "link", false); err != nil {
			return err
		}
	}
	for i, b := range p.Bursty {
		if err := idx("ge", i, b.Link, links, "link", true); err != nil {
			return err
		}
	}
	for i, sh := range p.Shrinks {
		if err := idx("shrink", i, sh.Switch, sws, "switch", true); err != nil {
			return err
		}
		if sh.Frac <= 0 || sh.Frac >= 1 {
			return fmt.Errorf("chaos: shrink[%d]: frac %v outside (0, 1)", i, sh.Frac)
		}
	}
	for i, fr := range p.Freezes {
		if err := idx("freeze", i, fr.Host, hosts, "host", false); err != nil {
			return err
		}
	}
	for i, f := range p.SwFails {
		if err := idx("swfail", i, f.Switch, sws, "switch", false); err != nil {
			return err
		}
	}
	for i, f := range p.PtFails {
		if err := idx("portfail", i, f.Link, links, "link", false); err != nil {
			return err
		}
		if f.Dir != 0 && f.Dir != 1 {
			return fmt.Errorf("chaos: portfail[%d]: dir %d not 0 or 1", i, f.Dir)
		}
	}
	for i, st := range p.Storms {
		if err := idx("storm", i, st.Host, hosts, "host", false); err != nil {
			return err
		}
		if st.Duration <= 0 {
			return fmt.Errorf("chaos: storm[%d]: needs a positive duration", i)
		}
	}
	return nil
}

// Counters returns the engine's fault counters, folding in the per-wire
// drop counts accumulated so far. Call after the run completes.
func (e *Engine) Counters() stats.FaultCounters {
	var c stats.FaultCounters
	for i, fired := range e.slotFired {
		if !fired {
			continue
		}
		switch e.slotKind[i] {
		case slotFlap:
			c.LinkFlaps++
		case slotShrink:
			c.BufferShrinks++
		case slotFreeze:
			c.NICFreezes++
		case slotSwFail:
			c.SwitchFails++
		case slotPortFail:
			c.PortFails++
		case slotStorm:
			c.PauseStorms++
		}
	}
	for _, n := range e.stormFrames {
		c.StormFrames += n
	}
	for _, tx := range e.net.Txs {
		c.DownDrops += tx.DownDrops()
		c.BurstyDrops += tx.BurstyDrops()
		c.RandomDrops += tx.InjectedDrops()
	}
	return c
}
