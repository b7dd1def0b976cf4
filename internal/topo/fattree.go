package topo

import (
	"fmt"

	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// FatTreeConfig parametrizes a k-ary fat-tree (multi-pod Clos): k pods,
// each with k/2 edge and k/2 aggregation switches, (k/2)² cores, and
// k³/4 hosts total (k=8 → 128 hosts, k=16 → 1024, k=34 → 9826).
type FatTreeConfig struct {
	K           int // even, >= 4
	LinkRateBps int64
	LinkDelay   sim.Time
	Switch      fabric.SwitchConfig // Ports is set per switch by the builder
	SeedSalt    int64               // RNG seed for probabilistic ECN

	// HostPauseTimeout: see LeafSpineConfig.
	HostPauseTimeout sim.Time

	// Group, when set, builds the fabric sharded: switches partitioned
	// min-cut-ish with hosts pinned to their edge switch's shard, and
	// every switch↔switch wire through the group mailboxes (at every
	// shard count, including one, so event order is partition-
	// independent). The group's lookahead must not exceed LinkDelay.
	Group *sim.Group
}

// FatTreeHosts returns the host count of a k-ary fat-tree.
func FatTreeHosts(k int) int { return k * k * k / 4 }

// FatTree builds the k-ary fat-tree and installs ECMP routing.
//
// Memory note: FIB state is kept sub-O(switches × hosts) by sharing
// routing structure — every core switch shares one table, the
// aggregation switches of a pod share one table, edge and aggregation
// tables are offset-indexed (SetRouteTableFlatAt) so they hold only their
// local host range with no dense nil prefix, and all "go up" decisions
// use a per-switch default ECMP route over the uplinks. There is no failure-aware
// reroute for this topology (Reroute no-ops); the failure experiments
// run on the leaf-spine fabric.
func FatTree(s *sim.Sim, cfg FatTreeConfig) *Network {
	k := cfg.K
	if k < 4 || k%2 != 0 {
		panic(fmt.Sprintf("fat-tree k must be even and >= 4, got %d", k))
	}
	half := k / 2
	podHosts := half * half
	numHosts := k * podHosts
	numEdge := k * half    // edge e = pod*half + i
	numAgg := k * half     // agg  a = pod*half + m
	numCore := half * half // core j = m*half + c

	g := cfg.Group
	shards := 1
	if g != nil {
		shards = g.Shards()
		s = g.Shard(0)
	}
	n := &Network{Sim: s, Group: g, LinkRateBps: cfg.LinkRateBps}

	// Packet pools: per shard when sharded (a packet always uses the
	// pool of the shard touching it); per pod when classic, so pod-local
	// traffic recycles through a pod-local free list. Cores borrow pool
	// 0 in the classic build.
	if g != nil {
		for i := 0; i < shards; i++ {
			n.Pools = append(n.Pools, packet.NewPool())
		}
	} else {
		for p := 0; p < k; p++ {
			n.Pools = append(n.Pools, packet.NewPool())
		}
	}
	n.Pool = n.Pools[0]
	rng := sim.NewRNG(0xfa7 + cfg.SeedSalt)

	// Partition and shared routing structure come from the cached
	// blueprint — identical for every cell of this shape, computed once.
	bp := fatTreeBlueprint(k, shards, g != nil)
	edgeShard, aggShard, coreShard := bp.edgeShard, bp.aggShard, bp.coreShard
	simFor := func(shard int) *sim.Sim {
		if g == nil {
			return s
		}
		return g.Shard(shard)
	}
	poolFor := func(shard, pod int) *packet.Pool {
		if g != nil {
			return n.Pools[shard]
		}
		return n.Pools[pod]
	}
	// Per-switch ECN RNG streams, derived in build order so they do not
	// depend on the partition.
	swRNG := func() *sim.RNG { return sim.NewRNG(rng.Int63()) }

	// Hosts: host h lives in pod h/podHosts under edge (h%podHosts)/half
	// at edge port h%half. NodeID equals the Hosts index.
	n.HostShard = make([]int, numHosts)
	for h := 0; h < numHosts; h++ {
		e := h / half // global edge index: pods are contiguous host ranges
		sh := edgeShard[e]
		n.HostShard[h] = sh
		host := fabric.NewHost(simFor(sh), packet.NodeID(h))
		host.SetPool(poolFor(sh, h/podHosts))
		n.Hosts = append(n.Hosts, host)
	}

	// Switch NodeIDs live far above any host ID.
	edgeID := func(e int) packet.NodeID { return packet.NodeID(1<<20 + e) }
	aggID := func(a int) packet.NodeID { return packet.NodeID(2<<20 + a) }
	coreID := func(j int) packet.NodeID { return packet.NodeID(3<<20 + j) }

	edges := make([]*fabric.Switch, numEdge)
	for e := range edges {
		sc := cfg.Switch
		sc.Ports = k
		edges[e] = fabric.NewSwitch(simFor(edgeShard[e]), edgeID(e), swRNG(), sc)
		edges[e].SetPool(poolFor(edgeShard[e], e/half))
		n.Switches = append(n.Switches, edges[e])
		n.SwitchShard = append(n.SwitchShard, edgeShard[e])
	}
	aggs := make([]*fabric.Switch, numAgg)
	for a := range aggs {
		sc := cfg.Switch
		sc.Ports = k
		aggs[a] = fabric.NewSwitch(simFor(aggShard[a]), aggID(a), swRNG(), sc)
		aggs[a].SetPool(poolFor(aggShard[a], a/half))
		n.Switches = append(n.Switches, aggs[a])
		n.SwitchShard = append(n.SwitchShard, aggShard[a])
	}
	cores := make([]*fabric.Switch, numCore)
	for j := range cores {
		sc := cfg.Switch
		sc.Ports = k
		cores[j] = fabric.NewSwitch(simFor(coreShard[j]), coreID(j), swRNG(), sc)
		cores[j].SetPool(poolFor(coreShard[j], 0))
		n.Switches = append(n.Switches, cores[j])
		n.SwitchShard = append(n.SwitchShard, coreShard[j])
	}

	// Host ↔ edge links: direct, on the edge's shard.
	for h := 0; h < numHosts; h++ {
		e := h / half
		port := h % half
		sh := edgeShard[e]
		a, b := fabric.Connect(simFor(sh), n.Hosts[h], 0, edges[e], port, cfg.LinkRateBps, cfg.LinkDelay)
		if g != nil {
			a.SetShards(sh, sh)
			b.SetShards(sh, sh)
		}
		a.SetPauseTimeout(cfg.HostPauseTimeout)
		n.Txs = append(n.Txs, a, b)
	}

	// Switch ↔ switch wires. Sharded builds route all of them through
	// the group mailboxes regardless of endpoint placement.
	var wireID uint32
	wire := func(A *fabric.Switch, ap, ash int, B *fabric.Switch, bp, bsh int) {
		var a, b *fabric.Tx
		if g != nil {
			a, b = fabric.ConnectSharded(g, A, ap, ash, B, bp, bsh, cfg.LinkRateBps, cfg.LinkDelay, wireID)
			wireID += 2
		} else {
			a, b = fabric.Connect(s, A, ap, B, bp, cfg.LinkRateBps, cfg.LinkDelay)
		}
		n.Txs = append(n.Txs, a, b)
		n.SwitchLinks = append(n.SwitchLinks, SwitchLink{A: A, APort: ap, B: B, BPort: bp})
	}
	// Edge (p,i) uplink port half+m ↔ agg (p,m) down port i.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			e := p*half + i
			for m := 0; m < half; m++ {
				a := p*half + m
				wire(edges[e], half+m, edgeShard[e], aggs[a], i, aggShard[a])
			}
		}
	}
	// Agg (p,m) uplink port half+c ↔ core m*half+c port p.
	for p := 0; p < k; p++ {
		for m := 0; m < half; m++ {
			a := p*half + m
			for c := 0; c < half; c++ {
				j := m*half + c
				wire(aggs[a], half+c, aggShard[a], cores[j], p, coreShard[j])
			}
		}
	}

	// Routing. Structure is shared aggressively — and, via the
	// blueprint, across cells too: every edge switch installs the one
	// edge table at its own host-range offset, every aggregation switch
	// its pod's offset of the one agg table, every core the one core
	// table. Safe because this topology never reroutes (tables are
	// write-once).
	for e, sw := range edges {
		sw.SetRouteTableFlatAt(packet.NodeID(e*half), bp.edgeTbl, bp.edgeFlat)
		sw.SetDefaultRoute(bp.uplinks)
	}
	for p := 0; p < k; p++ {
		lo := p * podHosts
		for m := 0; m < half; m++ {
			aggs[p*half+m].SetRouteTableFlatAt(packet.NodeID(lo), bp.aggTbl, bp.aggFlat)
			aggs[p*half+m].SetDefaultRoute(bp.uplinks)
		}
	}
	for _, sw := range cores {
		sw.SetRouteTableFlatAt(0, bp.coreTbl, bp.coreFlat)
	}

	// Host→edge→agg→core→agg→edge→host: 6 links each way.
	n.BaseRTT = 2 * 6 * cfg.LinkDelay
	return n
}
