package chaos

import (
	"fmt"
	"sort"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/topo"
)

// maxChain caps how many occurrences one repeat chain may expand to.
// Every occurrence costs a few scheduled closures up front, so a tight
// every= against a seconds-long horizon would exhaust memory before the
// run starts; ApplyResolved refuses such a chain instead.
const maxChain = 1 << 20

// ApplyResolved validates the plan against net and posts its events,
// committing every decision here, single-threaded, so the fault sequence
// is a pure function of (plan, runSeed) at any shard count:
//
//   - all RNG draws happen here, in directive order (Flaps, Bursty,
//     Shrinks, Freezes, SwFails, PtFails, Storms);
//   - repeat chains are expanded statically up to horizon (the run
//     never executes past it, so truncation is invisible), and a chain
//     longer than maxChain is an error naming its directive;
//   - each effect is posted to the shard owning the mutated state: a
//     link outage splits into a source half (stop transmitting) and an
//     arrival half (black-hole the wire) on their respective shards;
//   - a switch failure is a no-op while its target is already down; that
//     guard is replayed on a static control-plane timeline, and reroutes
//     become per-switch route installs carrying an immutable failed-set
//     snapshot.
//
// Occurrence counters use the engine's slot table: the firing event
// marks its slot, and Counters sums marks after the run joins, so only
// occurrences that actually executed before the run ended are counted.
//
// horizon bounds chain expansion and must equal the run's horizon.
// Topologies built without shard metadata (Star, dumbbell) resolve
// everything onto shard 0.
func (p *Plan) ApplyResolved(net *topo.Network, runSeed int64, horizon sim.Time) (*Engine, error) {
	e := &Engine{
		net: net,
		rng: sim.NewRNG(p.Seed*0x9e3779b9 + runSeed + 0xc4a05),
	}
	if p.Empty() {
		return e, nil
	}
	if err := p.Validate(net); err != nil {
		return nil, err
	}
	for i, f := range p.Flaps {
		if err := e.resolveFlap(i, f, horizon); err != nil {
			return nil, err
		}
	}
	for _, b := range p.Bursty {
		e.resolveBursty(b)
	}
	for i, sh := range p.Shrinks {
		if err := e.resolveShrink(i, sh, horizon); err != nil {
			return nil, err
		}
	}
	for i, fr := range p.Freezes {
		if err := e.resolveFreeze(i, fr, horizon); err != nil {
			return nil, err
		}
	}
	if err := e.resolveSwitchFails(p.SwFails, horizon); err != nil {
		return nil, err
	}
	for _, f := range p.PtFails {
		e.resolvePortFail(f)
	}
	for _, st := range p.Storms {
		e.resolveStorm(st)
	}
	return e, nil
}

// Occurrence slot kinds (Engine.slotKind values).
const (
	slotFlap uint8 = iota
	slotShrink
	slotFreeze
	slotSwFail
	slotPortFail
	slotStorm
)

// newSlot allocates an occurrence slot and returns its index. Closures
// capture the index, never a pointer: the slices may still grow while
// later directives resolve.
func (e *Engine) newSlot(kind uint8) int {
	e.slotKind = append(e.slotKind, kind)
	e.slotFired = append(e.slotFired, false)
	return len(e.slotFired) - 1
}

// post schedules fn at time at on the simulator owning shard.
func (e *Engine) post(shard int, at sim.Time, fn func()) {
	e.net.ShardSim(shard).At(at, fn)
}

// switchShard returns switch i's shard, tolerating topologies that
// don't populate shard metadata (Star, dumbbell — everything lives on
// shard 0 there).
func (e *Engine) switchShard(i int) int {
	if i < len(e.net.SwitchShard) {
		return e.net.SwitchShard[i]
	}
	return 0
}

// hostShard is switchShard for hosts.
func (e *Engine) hostShard(i int) int {
	if i < len(e.net.HostShard) {
		return e.net.HostShard[i]
	}
	return 0
}

// pick resolves a validated target index over a population of n,
// drawing RandomTarget from the engine RNG.
func (e *Engine) pick(idx, n int) int {
	if idx == RandomTarget {
		return e.rng.Intn(n)
	}
	return idx
}

// linkOutage posts the four half-events taking both directions of link
// down at t, plus the matching up halves at up (skipped when up <= t,
// i.e. a permanent outage). The first down half also marks slot.
func (e *Engine) linkOutage(link int, t, up sim.Time, slot int) {
	a, b := e.net.Txs[2*link], e.net.Txs[2*link+1]
	e.txOutage(a, t, up, slot)
	e.txOutage(b, t, up, -1)
}

// txOutage downs one directional transmitter at t (split into source
// and arrival halves on their owning shards) and restores it at up when
// up > t. slot >= 0 marks that occurrence slot from the source half.
func (e *Engine) txOutage(tx *fabric.Tx, t, up sim.Time, slot int) {
	e.post(tx.Shard(), t, func() {
		tx.SetSrcDown(true)
		if slot >= 0 {
			e.slotFired[slot] = true
		}
	})
	e.post(tx.ArrivalShard(), t, func() { tx.SetArrivalDown(true) })
	if up > t {
		e.post(tx.Shard(), up, func() { tx.SetSrcDown(false) })
		e.post(tx.ArrivalShard(), up, func() { tx.SetArrivalDown(false) })
	}
}

// chainTimes expands a repeat chain (first occurrence at, period every,
// count occurrences, bounded by until and horizon) into explicit start
// times. An occurrence starting at or after until is dropped along with
// the rest of its chain; occurrences past horizon can never execute and
// are dropped to keep unbounded chains finite. directive and i name the
// chain in the error returned when it still exceeds maxChain.
func chainTimes(directive string, i int, at, every sim.Time, count int, until, horizon sim.Time) ([]sim.Time, error) {
	var out []sim.Time
	t := at
	for occ := 0; ; occ++ {
		if until > 0 && t >= until {
			break
		}
		if t > horizon {
			break
		}
		if len(out) == maxChain {
			return nil, fmt.Errorf("chaos: %s[%d]: every=%v repeats more than %d times before the run horizon %v; "+
				"bound it: add count= or until= (until= is flap-only)", directive, i, every, maxChain, horizon)
		}
		out = append(out, t)
		if every > 0 && (count == 0 || occ+1 < count) {
			t += every
			continue
		}
		break
	}
	return out, nil
}

func (e *Engine) resolveFlap(i int, f LinkFlap, horizon sim.Time) error {
	times, err := chainTimes("flap", i, f.At, f.Every, f.Count, f.Until, horizon)
	if err != nil {
		return err
	}
	for _, t := range times {
		link := e.pick(f.Link, NumLinks(e.net))
		e.linkOutage(link, t, t+f.Down, e.newSlot(slotFlap))
	}
	return nil
}

func (e *Engine) resolveBursty(b BurstyLoss) {
	var links []int
	if b.Link == AllTargets {
		for i := 0; i < NumLinks(e.net); i++ {
			links = append(links, i)
		}
	} else {
		links = []int{e.pick(b.Link, NumLinks(e.net))}
	}
	for _, l := range links {
		for dir := 0; dir < 2; dir++ {
			tx := e.net.Txs[2*l+dir]
			// Each direction gets its own derived RNG so the drop
			// sequence on one direction is independent of traffic on
			// the other, yet fully reproducible.
			rng := sim.NewRNG(e.rng.Int63())
			e.post(tx.Shard(), b.Start, func() {
				tx.InjectGilbertElliott(b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad, rng)
			})
			if b.Stop > b.Start {
				e.post(tx.Shard(), b.Stop, func() {
					tx.InjectGilbertElliott(0, 0, 0, 0, nil)
				})
			}
		}
	}
}

func (e *Engine) resolveShrink(i int, sh BufferShrink, horizon sim.Time) error {
	var sws []int
	if sh.Switch == AllTargets {
		for i := range e.net.Switches {
			sws = append(sws, i)
		}
	} else {
		sws = []int{sh.Switch}
	}
	times, err := chainTimes("shrink", i, sh.At, sh.Every, sh.Count, 0, horizon)
	if err != nil {
		return err
	}
	for _, t := range times {
		slot := e.newSlot(slotShrink)
		for k, i := range sws {
			sw := e.net.Switches[i]
			shard := e.switchShard(i)
			mark := k == 0
			// Routed through the switch's BufferPolicy: the fraction is
			// resolved here, the policy computes the byte limit from
			// its own capacity notion (tiny-buffer) at fire time.
			e.post(shard, t, func() {
				sw.ShrinkBuffer(sh.Frac)
				if mark {
					e.slotFired[slot] = true
				}
			})
			e.post(shard, t+sh.Duration, func() { sw.ShrinkBuffer(0) })
		}
	}
	return nil
}

func (e *Engine) resolveFreeze(i int, fr NICFreeze, horizon sim.Time) error {
	times, err := chainTimes("freeze", i, fr.At, fr.Every, fr.Count, 0, horizon)
	if err != nil {
		return err
	}
	for _, t := range times {
		idx := e.pick(fr.Host, len(e.net.Hosts))
		shard := e.hostShard(idx)
		tx := e.net.Hosts[idx].NICTx()
		slot := e.newSlot(slotFreeze)
		e.post(shard, t, func() {
			tx.Freeze()
			e.slotFired[slot] = true
		})
		e.post(shard, t+fr.Duration, tx.Unfreeze)
	}
	return nil
}

// cpEvent is one control-plane transition: at time t the controller
// learns switch sw failed (or recovered) and reinstalls routes.
type cpEvent struct {
	t      sim.Time
	sw     int
	failed bool
}

// resolveSwitchFails handles every SwitchFail directive together,
// because the already-failed guard couples them: an occurrence is a
// no-op while its target is already down. Random picks
// are drawn per directive in order (so the stream matches the overall
// directive-order convention); then occurrences are replayed in global
// (time, directive, occurrence) order against a static down/up timeline
// to decide which ones take effect.
func (e *Engine) resolveSwitchFails(fails []SwitchFail, horizon sim.Time) error {
	type occ struct {
		t        sim.Time
		dir, seq int
		sw       int
		f        SwitchFail
	}
	var occs []occ
	for di, f := range fails {
		times, err := chainTimes("swfail", di, f.At, f.Every, f.Count, 0, horizon)
		if err != nil {
			return err
		}
		for si, t := range times {
			occs = append(occs, occ{t: t, dir: di, seq: si, sw: e.pick(f.Switch, len(e.net.Switches)), f: f})
		}
	}
	sort.SliceStable(occs, func(i, j int) bool {
		if occs[i].t != occs[j].t {
			return occs[i].t < occs[j].t
		}
		if occs[i].dir != occs[j].dir {
			return occs[i].dir < occs[j].dir
		}
		return occs[i].seq < occs[j].seq
	})

	// Replay the guard: a switch is down during [t, t+Duration), or
	// forever when Duration == 0. An occurrence landing exactly at the
	// reboot instant takes effect (the reboot is posted first, so it
	// carries the older sequence number and runs first).
	downUntil := make([]sim.Time, len(e.net.Switches))
	perm := make([]bool, len(e.net.Switches))
	var cps []cpEvent
	for _, o := range occs {
		if perm[o.sw] || o.t < downUntil[o.sw] {
			continue // guard: already failed, occurrence is a no-op
		}
		if o.f.Duration > 0 {
			downUntil[o.sw] = o.t + o.f.Duration
		} else {
			perm[o.sw] = true
		}
		sw := e.net.Switches[o.sw]
		shard := e.switchShard(o.sw)
		slot := e.newSlot(slotSwFail)
		e.post(shard, o.t, func() {
			sw.Fail()
			e.slotFired[slot] = true
		})
		if o.f.Reroute > 0 {
			cps = append(cps, cpEvent{t: o.t + o.f.Reroute, sw: o.sw, failed: true})
		}
		if o.f.Duration > 0 {
			e.post(shard, o.t+o.f.Duration, sw.Reboot)
			if o.f.Reroute > 0 {
				cps = append(cps, cpEvent{t: o.t + o.f.Duration + o.f.Reroute, sw: o.sw, failed: false})
			}
		}
	}

	// Control plane: fold transitions in (time, generation) order into
	// failed-set snapshots, one reroute wave per distinct instant. Each
	// switch gets its route install on its own shard, reading only the
	// immutable snapshot.
	sort.SliceStable(cps, func(i, j int) bool { return cps[i].t < cps[j].t })
	failed := make([]bool, len(e.net.Switches))
	for i := 0; i < len(cps); {
		t := cps[i].t
		for ; i < len(cps) && cps[i].t == t; i++ {
			failed[cps[i].sw] = cps[i].failed
		}
		snapshot := append([]bool(nil), failed...)
		for j := range e.net.Switches {
			sw := j
			e.post(e.switchShard(sw), t, func() {
				e.net.RerouteSwitch(sw, snapshot)
			})
		}
	}
	return nil
}

func (e *Engine) resolvePortFail(f PortFail) {
	link := e.pick(f.Link, NumLinks(e.net))
	tx := e.net.Txs[2*link+f.Dir]
	up := f.At
	if f.Duration > 0 {
		up = f.At + f.Duration
	}
	e.txOutage(tx, f.At, up, e.newSlot(slotPortFail))
}

func (e *Engine) resolveStorm(st PauseStorm) {
	refresh := st.Refresh
	if refresh <= 0 {
		refresh = 2 * sim.Microsecond
	}
	idx := e.pick(st.Host, len(e.net.Hosts))
	h := e.net.Hosts[idx]
	hsim := e.net.ShardSim(e.hostShard(idx))
	slot := e.newSlot(slotStorm)
	frames := len(e.stormFrames)
	e.stormFrames = append(e.stormFrames, 0)
	// The whole storm — activation, emit chain, final resume — runs on
	// the host's shard, so a lazy self-rescheduling emitter is safe: one
	// pending event per storm, however long it lasts.
	hsim.At(st.At, func() {
		end := hsim.Now() + st.Duration
		e.slotFired[slot] = true
		var emit func()
		emit = func() {
			pf := h.NewPacket()
			pf.Type = packet.Pause
			pf.Src = h.ID()
			h.NICTx().DeliverControl(pf)
			e.stormFrames[frames]++
			if hsim.Now()+refresh < end {
				hsim.After(refresh, emit)
				return
			}
			hsim.After(refresh, func() {
				rf := h.NewPacket()
				rf.Type = packet.Resume
				rf.Src = h.ID()
				h.NICTx().DeliverControl(rf)
			})
		}
		emit()
	})
}
