// Package topo builds the network topologies used by the paper's
// evaluation: the 96-host leaf-spine fabric (§7.1), a single-switch star
// (testbed microbenchmarks, §7.4), and a two-switch dumbbell (§7.4 mixed
// traffic with PFC).
package topo

import (
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// Network is a built topology with routing installed.
type Network struct {
	Sim      *sim.Sim
	Hosts    []*fabric.Host
	Switches []*fabric.Switch
	// Pool is the packet free-list shared by every host of this network
	// (one per simulation; the event loop is single-threaded). In a
	// sharded build it is shard 0's pool; see Pools.
	Pool *packet.Pool

	// Group is the shard group a sharded build runs on (nil classic).
	// Hosts live on their ToR's shard, every inter-switch wire crosses
	// the group's mailboxes — at every shard count, including one, so
	// the event order is partition-independent.
	Group *sim.Group
	// HostShard / SwitchShard give each device's shard (all zero when
	// Group is nil). Fault injectors use them to run mutations on the
	// owning shard.
	HostShard   []int
	SwitchShard []int
	// Pools holds the per-shard packet free-lists (len 1 when Group is
	// nil). A packet is always got from and put to the pool of the
	// shard touching it; packets migrate between pools as they cross
	// the fabric, which is safe because Put fully zeroes.
	Pools []*packet.Pool
	// Txs lists every fabric-side transmitter (switch→switch and
	// switch→host and host→switch), for pause-time accounting.
	Txs         []*fabric.Tx
	LinkRateBps int64
	// BaseRTT is the round-trip propagation+store-forward latency
	// between two hosts under different ToRs (zero queueing), useful
	// for configuring transports.
	BaseRTT sim.Time

	// SwitchLinks lists the switch-to-switch adjacencies of the fabric
	// (A's port APort faces B, and B's port BPort faces A), so failure
	// tooling — the audit pause wait-for graph in particular — can map
	// ports to peer devices without re-deriving the wiring.
	SwitchLinks []SwitchLink

	// failedSwitches is the control plane's view of dead switches
	// (indexed like Switches), maintained by SetSwitchFailed. The data
	// plane only changes when Reroute pushes the view into the routing
	// tables — the gap between the two is the reconvergence black-hole
	// window.
	failedSwitches []bool
	// reroute reinstalls routes honoring failedSwitches. Builders with
	// path diversity install it; topologies without alternates leave it
	// nil and keep black-holing.
	reroute func(failed []bool)
	// rerouteOne reinstalls routes on a single switch, for sharded
	// fault schedules that must mutate each switch on its own shard.
	rerouteOne func(i int, failed []bool)
}

// SwitchLink is one full-duplex switch-to-switch cable.
type SwitchLink struct {
	A     *fabric.Switch
	APort int
	B     *fabric.Switch
	BPort int
}

// SetSwitchFailed marks switch index i as failed (or repaired) in the
// control-plane view. The data plane is unaffected until Reroute runs,
// modeling detection plus reconvergence delay.
func (n *Network) SetSwitchFailed(i int, failed bool) {
	if n.failedSwitches == nil {
		n.failedSwitches = make([]bool, len(n.Switches))
	}
	if i >= 0 && i < len(n.failedSwitches) {
		n.failedSwitches[i] = failed
	}
}

// Reroute reinstalls static failure-aware routes for the current failed
// set. Topologies without path diversity (star, dumbbell) have nothing
// to reroute and no-op.
func (n *Network) Reroute() {
	if n.reroute == nil {
		return
	}
	if n.failedSwitches == nil {
		n.failedSwitches = make([]bool, len(n.Switches))
	}
	n.reroute(n.failedSwitches)
}

// RerouteSwitch reinstalls failure-aware routes on switch i alone,
// using the caller's snapshot of the control-plane failed view instead
// of the network's. Resolved fault schedules run it as a per-switch
// event on the switch's own shard, so a fabric-wide reconvergence is a
// set of same-instant shard-local route updates.
func (n *Network) RerouteSwitch(i int, failed []bool) {
	if n.rerouteOne != nil {
		n.rerouteOne(i, failed)
	}
}

// ShardSim returns the simulator owning shard i (the network's only
// simulator when unsharded).
func (n *Network) ShardSim(i int) *sim.Sim {
	if n.Group == nil {
		return n.Sim
	}
	return n.Group.Shard(i)
}

// Counters sums the switch counters across the fabric.
func (n *Network) Counters() fabric.Counters {
	var c fabric.Counters
	for _, sw := range n.Switches {
		c.Add(&sw.Ctr)
	}
	return c
}

// FinishPausedClocks closes any open PFC pause intervals at end of run.
func (n *Network) FinishPausedClocks() {
	for _, tx := range n.Txs {
		tx.FinishPausedClock()
	}
}

// PausedFraction returns the mean fraction of link-time spent paused
// across all fabric transmitters, over the elapsed duration.
func (n *Network) PausedFraction(elapsed sim.Time) float64 {
	if elapsed <= 0 || len(n.Txs) == 0 {
		return 0
	}
	var sum float64
	for _, tx := range n.Txs {
		sum += float64(tx.PausedTotal) / float64(elapsed)
	}
	return sum / float64(len(n.Txs))
}

// LeafSpineConfig parametrizes the leaf-spine fabric.
type LeafSpineConfig struct {
	Spines      int // core switches
	Tors        int // leaf switches
	HostsPerTor int
	LinkRateBps int64
	LinkDelay   sim.Time
	Switch      fabric.SwitchConfig // Ports is set per switch by the builder
	SeedSalt    int64               // RNG seed for probabilistic ECN

	// PerSwitch, when set, is called for every switch the builder
	// constructs — ToRs first (i = 0..Tors-1, spine=false), then spines
	// (i = Tors..Tors+Spines-1, spine=true) — after the builder sets
	// Ports and before NewSwitch. It may mutate the config in place to
	// give individual switches their own MMU/flow-control policies or
	// thresholds (e.g. tiny-buffer ToRs under a deep-buffered spine).
	PerSwitch func(i int, spine bool, sc *fabric.SwitchConfig)

	// HostPauseTimeout, when non-zero, makes host NIC pause state expire
	// after that long without a refreshing PAUSE frame (finite PFC
	// quanta), so a NIC paused by a switch that then dies recovers.
	// Zero keeps pauses latched until RESUME (the seed model).
	HostPauseTimeout sim.Time

	// Group, when set, builds the fabric sharded across the group's
	// simulators: switches are partitioned min-cut-ish (hosts pinned to
	// their ToR's shard), host↔ToR links stay direct on the shared
	// shard, and every ToR↔spine wire goes through the group mailboxes
	// — at every shard count, including one, so the firing order is
	// identical no matter how the fabric is split. The group's
	// lookahead must not exceed LinkDelay. Nil builds the classic
	// single-simulator network on s.
	Group *sim.Group
}

// DefaultLeafSpine returns the paper's simulation fabric: 4 spines, 12
// ToRs, 8 hosts per ToR, 40 Gbps links. The per-link delay is the caller's
// choice (10 µs for the TCP family, 1 µs for RoCE).
func DefaultLeafSpine(delay sim.Time) LeafSpineConfig {
	return LeafSpineConfig{
		Spines:      4,
		Tors:        12,
		HostsPerTor: 8,
		LinkRateBps: 40e9,
		LinkDelay:   delay,
		Switch: fabric.SwitchConfig{
			BufferBytes: 4_500_000, // Trident II slice emulation (§7.1)
			Alpha:       1,
		},
	}
}

// LeafSpine builds the fabric and installs ECMP routing. With
// cfg.Group set the build is sharded: see LeafSpineConfig.Group.
func LeafSpine(s *sim.Sim, cfg LeafSpineConfig) *Network {
	g := cfg.Group
	shards := 1
	if g != nil {
		shards = g.Shards()
		s = g.Shard(0)
	}
	n := &Network{Sim: s, Group: g, LinkRateBps: cfg.LinkRateBps}
	for i := 0; i < shards; i++ {
		n.Pools = append(n.Pools, packet.NewPool())
	}
	n.Pool = n.Pools[0]
	numHosts := cfg.Tors * cfg.HostsPerTor
	rng := sim.NewRNG(0x7a17 + cfg.SeedSalt)

	// Partition (ToRs first, then spines, matching the Switches slice)
	// and shared routing structure come from the cached blueprint —
	// identical for every cell of this shape, computed once. Hosts are
	// pinned to their ToR's shard so the host↔ToR links never cross
	// shards.
	bp := leafSpineBlueprint(cfg.Spines, cfg.Tors, cfg.HostsPerTor, shards, g != nil)
	torShard, spineShard := bp.torShard, bp.spineShard
	simFor := func(shard int) *sim.Sim {
		if g == nil {
			return s
		}
		return g.Shard(shard)
	}
	// In a sharded build every switch gets its own ECN RNG stream,
	// derived here in build order so the streams — like everything else
	// about the build — do not depend on the partition. The classic
	// build keeps the shared topology stream.
	swRNG := func() *sim.RNG {
		if g == nil {
			return rng
		}
		return sim.NewRNG(rng.Int63())
	}

	n.HostShard = make([]int, numHosts)
	for h := 0; h < numHosts; h++ {
		sh := torShard[h/cfg.HostsPerTor]
		n.HostShard[h] = sh
		host := fabric.NewHost(simFor(sh), packet.NodeID(h))
		host.SetPool(n.Pools[sh])
		n.Hosts = append(n.Hosts, host)
	}
	torID := func(t int) packet.NodeID { return packet.NodeID(1000 + t) }
	spineID := func(c int) packet.NodeID { return packet.NodeID(2000 + c) }

	tors := make([]*fabric.Switch, cfg.Tors)
	for t := range tors {
		sc := cfg.Switch
		sc.Ports = cfg.HostsPerTor + cfg.Spines
		if cfg.PerSwitch != nil {
			cfg.PerSwitch(t, false, &sc)
		}
		tors[t] = fabric.NewSwitch(simFor(torShard[t]), torID(t), swRNG(), sc)
		tors[t].SetPool(n.Pools[torShard[t]])
		n.Switches = append(n.Switches, tors[t])
		n.SwitchShard = append(n.SwitchShard, torShard[t])
	}
	spines := make([]*fabric.Switch, cfg.Spines)
	for c := range spines {
		sc := cfg.Switch
		sc.Ports = cfg.Tors
		if cfg.PerSwitch != nil {
			cfg.PerSwitch(cfg.Tors+c, true, &sc)
		}
		spines[c] = fabric.NewSwitch(simFor(spineShard[c]), spineID(c), swRNG(), sc)
		spines[c].SetPool(n.Pools[spineShard[c]])
		n.Switches = append(n.Switches, spines[c])
		n.SwitchShard = append(n.SwitchShard, spineShard[c])
	}

	// Host <-> ToR links: host h on ToR h/HostsPerTor, ToR port h%HostsPerTor.
	for h := 0; h < numHosts; h++ {
		t := h / cfg.HostsPerTor
		p := h % cfg.HostsPerTor
		sh := torShard[t]
		a, b := fabric.Connect(simFor(sh), n.Hosts[h], 0, tors[t], p, cfg.LinkRateBps, cfg.LinkDelay)
		a.SetShards(sh, sh)
		b.SetShards(sh, sh)
		a.SetPauseTimeout(cfg.HostPauseTimeout)
		n.Txs = append(n.Txs, a, b)
	}
	// ToR <-> spine links: ToR uplink port HostsPerTor+c to spine c port
	// t. Sharded builds route these through the group mailboxes whether
	// or not the endpoints share a shard — the mailbox order must be
	// the only order that ever exists.
	var wireID uint32
	for t := range tors {
		for c := range spines {
			var a, b *fabric.Tx
			if g != nil {
				a, b = fabric.ConnectSharded(g, tors[t], cfg.HostsPerTor+c, torShard[t],
					spines[c], t, spineShard[c], cfg.LinkRateBps, cfg.LinkDelay, wireID)
				wireID += 2
			} else {
				a, b = fabric.Connect(s, tors[t], cfg.HostsPerTor+c, spines[c], t, cfg.LinkRateBps, cfg.LinkDelay)
			}
			n.Txs = append(n.Txs, a, b)
			n.SwitchLinks = append(n.SwitchLinks, SwitchLink{
				A: tors[t], APort: cfg.HostsPerTor + c, B: spines[c], BPort: t,
			})
		}
	}

	// Routing. Every table comes from the blueprint, shared by every
	// cell of this shape: one per ToR, one for all spines. A reroute
	// copies a ToR's table before its first write (SetRoute), so one
	// cell's reconvergence never reaches another's.
	for t, tor := range tors {
		tor.SetRouteTableFlatAt(0, bp.torTbl[t], bp.torFlat[t])
	}
	for _, sp := range spines {
		sp.SetRouteTableFlatAt(0, bp.spineTbl, bp.spineFlat)
	}

	// Failure-aware static rerouting: ToR uplink ECMP groups shrink to
	// the live spines. A dead ToR is terminal for its hosts (no
	// alternate path exists), so only spine health changes routes.
	// With every spine dead the static routes stay put and black-hole —
	// there is nothing better to install.
	liveUplinks := func(failed []bool) []int {
		live := make([]int, 0, cfg.Spines)
		for c := 0; c < cfg.Spines; c++ {
			if !failed[cfg.Tors+c] {
				live = append(live, cfg.HostsPerTor+c)
			}
		}
		if len(live) == 0 {
			live = bp.uplinks
		}
		return live
	}
	rerouteTor := func(t int, live []int) {
		for h := 0; h < numHosts; h++ {
			if h/cfg.HostsPerTor != t {
				tors[t].SetRoute(packet.NodeID(h), live)
			}
		}
	}
	n.reroute = func(failed []bool) {
		live := liveUplinks(failed)
		for t := range tors {
			rerouteTor(t, live)
		}
	}
	// Sharded reconvergence touches one switch per event so each route
	// update runs on the owning shard; spines have nothing to reroute.
	n.rerouteOne = func(i int, failed []bool) {
		if i < cfg.Tors {
			rerouteTor(i, liveUplinks(failed))
		}
	}

	// Host→ToR→spine→ToR→host: 4 links each way.
	n.BaseRTT = 2 * 4 * cfg.LinkDelay
	return n
}

// StarConfig parametrizes a single-switch star (the testbed's single ToR).
type StarConfig struct {
	Hosts       int
	LinkRateBps int64
	LinkDelay   sim.Time
	Switch      fabric.SwitchConfig
	SeedSalt    int64

	// HostPauseTimeout: see LeafSpineConfig.
	HostPauseTimeout sim.Time
}

// Star builds an N-host single switch network.
func Star(s *sim.Sim, cfg StarConfig) *Network {
	n := &Network{Sim: s, LinkRateBps: cfg.LinkRateBps, Pool: packet.NewPool()}
	n.Pools = []*packet.Pool{n.Pool}
	rng := sim.NewRNG(0x57a6 + cfg.SeedSalt)
	sc := cfg.Switch
	sc.Ports = cfg.Hosts
	sw := fabric.NewSwitch(s, 1000, rng, sc)
	sw.SetPool(n.Pool)
	n.Switches = []*fabric.Switch{sw}
	for h := 0; h < cfg.Hosts; h++ {
		host := fabric.NewHost(s, packet.NodeID(h))
		host.SetPool(n.Pool)
		n.Hosts = append(n.Hosts, host)
		a, b := fabric.Connect(s, host, 0, sw, h, cfg.LinkRateBps, cfg.LinkDelay)
		a.SetPauseTimeout(cfg.HostPauseTimeout)
		n.Txs = append(n.Txs, a, b)
		sw.SetRoute(packet.NodeID(h), []int{h})
	}
	n.BaseRTT = 2 * 2 * cfg.LinkDelay
	return n
}

// DumbbellConfig parametrizes the two-switch dumbbell of §7.4: senders on
// the left switch, receivers on the right, one inter-switch link.
type DumbbellConfig struct {
	LeftHosts, RightHosts int
	LinkRateBps           int64 // host links
	CrossRateBps          int64 // inter-switch link
	LinkDelay             sim.Time
	Switch                fabric.SwitchConfig
	SeedSalt              int64

	// HostPauseTimeout: see LeafSpineConfig.
	HostPauseTimeout sim.Time
}

// Dumbbell builds the two-switch topology. Hosts 0..LeftHosts-1 attach to
// the left switch; the rest to the right switch.
func Dumbbell(s *sim.Sim, cfg DumbbellConfig) *Network {
	n := &Network{Sim: s, LinkRateBps: cfg.LinkRateBps, Pool: packet.NewPool()}
	n.Pools = []*packet.Pool{n.Pool}
	rng := sim.NewRNG(0xd0bb + cfg.SeedSalt)
	lc := cfg.Switch
	lc.Ports = cfg.LeftHosts + 1
	rc := cfg.Switch
	rc.Ports = cfg.RightHosts + 1
	left := fabric.NewSwitch(s, 1000, rng, lc)
	right := fabric.NewSwitch(s, 1001, rng, rc)
	left.SetPool(n.Pool)
	right.SetPool(n.Pool)
	n.Switches = []*fabric.Switch{left, right}

	total := cfg.LeftHosts + cfg.RightHosts
	for h := 0; h < total; h++ {
		host := fabric.NewHost(s, packet.NodeID(h))
		host.SetPool(n.Pool)
		n.Hosts = append(n.Hosts, host)
		if h < cfg.LeftHosts {
			a, b := fabric.Connect(s, host, 0, left, h, cfg.LinkRateBps, cfg.LinkDelay)
			a.SetPauseTimeout(cfg.HostPauseTimeout)
			n.Txs = append(n.Txs, a, b)
		} else {
			a, b := fabric.Connect(s, host, 0, right, h-cfg.LeftHosts, cfg.LinkRateBps, cfg.LinkDelay)
			a.SetPauseTimeout(cfg.HostPauseTimeout)
			n.Txs = append(n.Txs, a, b)
		}
	}
	cross := cfg.CrossRateBps
	if cross == 0 {
		cross = cfg.LinkRateBps
	}
	a, b := fabric.Connect(s, left, cfg.LeftHosts, right, cfg.RightHosts, cross, cfg.LinkDelay)
	n.Txs = append(n.Txs, a, b)
	n.SwitchLinks = append(n.SwitchLinks, SwitchLink{
		A: left, APort: cfg.LeftHosts, B: right, BPort: cfg.RightHosts,
	})

	for h := 0; h < total; h++ {
		dst := packet.NodeID(h)
		if h < cfg.LeftHosts {
			left.SetRoute(dst, []int{h})
			right.SetRoute(dst, []int{cfg.RightHosts})
		} else {
			left.SetRoute(dst, []int{cfg.LeftHosts})
			right.SetRoute(dst, []int{h - cfg.LeftHosts})
		}
	}
	n.BaseRTT = 2 * 3 * cfg.LinkDelay
	return n
}
