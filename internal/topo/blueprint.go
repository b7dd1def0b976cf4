package topo

import (
	"sync"

	"tlt/internal/fabric"
)

// Fabric blueprints: the immutable parts of a topology build — the
// min-cut partition and the shared routing structure — depend only on
// the shape (k, shard count), not on the cell (seed, RNG salt, MMU
// policy). Experiments instantiate hundreds of cells of one shape, so
// these parts are computed once per shape and reused; everything
// mutable (switches, hosts, wires, RNG streams, packet pools) is still
// built per cell. Shared tables are safe across concurrently-running
// cells because a switch never writes to an installed table: the
// leaf-spine reroute's first fabric.Switch.SetRoute takes a private copy
// of the ToR's table, so one cell's reconvergence never reaches another.

// ftBlueprint is the reusable skeleton of a k-ary fat-tree.
type ftBlueprint struct {
	// Switch → shard assignment (all zeros when built unsharded).
	edgeShard, aggShard, coreShard []int
	// Shared ECMP structure: portGroup[i] is the singleton group {i},
	// uplinks is {half..k-1}.
	portGroup [][]int
	uplinks   []int
	// One table per forwarding-equivalence class: every edge switch
	// installs edgeTbl at its own host-range offset, every aggregation
	// switch installs aggTbl at its pod's offset, every core shares
	// coreTbl. The *Flat arrays are the tables' FlatRoutes projections
	// (single-port fast path), shared the same way.
	edgeTbl, aggTbl, coreTbl    [][]int
	edgeFlat, aggFlat, coreFlat []int32
}

type ftKey struct {
	k       int
	shards  int
	sharded bool // Group set (Partition ran) vs classic zero assignment
}

type lsKey struct {
	spines, tors, hostsPerTor int
	shards                    int
	sharded                   bool
}

// lsBlueprint is the reusable skeleton of a leaf-spine fabric.
type lsBlueprint struct {
	torShard, spineShard []int
	uplinks              []int
	// spineTbl maps destination host → down port; spines are untouched
	// by reroute, so one table serves every spine of every cell.
	// spineFlat is its shared FlatRoutes projection.
	spineTbl  [][]int
	spineFlat []int32
	// torTbl[t] maps destination host → ToR t's egress group (its local
	// hosts' down ports, the uplink group for the rest), torFlat[t] its
	// FlatRoutes projection. A reroute copies a ToR's table before its
	// first write (fabric.Switch.SetRoute), so these stay as built.
	torTbl  [][][]int
	torFlat [][]int32
}

var (
	bpMu    sync.Mutex
	ftCache = map[ftKey]*ftBlueprint{}
	lsCache = map[lsKey]*lsBlueprint{}
)

// fatTreeBlueprint returns (building on first use) the shared skeleton
// for a k-ary fat-tree split across `shards` shards.
func fatTreeBlueprint(k, shards int, sharded bool) *ftBlueprint {
	key := ftKey{k: k, shards: shards, sharded: sharded}
	bpMu.Lock()
	defer bpMu.Unlock()
	if bp, ok := ftCache[key]; ok {
		return bp
	}
	half := k / 2
	podHosts := half * half
	numHosts := k * podHosts
	numEdge := k * half
	numAgg := k * half
	numCore := half * half
	numSw := numEdge + numAgg + numCore

	bp := &ftBlueprint{
		edgeShard: make([]int, numEdge),
		aggShard:  make([]int, numAgg),
		coreShard: make([]int, numCore),
	}
	if sharded {
		// Edges weigh their attached hosts; every intra-pod edge↔agg
		// link and every agg↔core link is an affinity edge.
		weight := make([]int, numSw)
		var links [][2]int
		for e := 0; e < numEdge; e++ {
			weight[e] = 1 + half
			p := e / half
			for m := 0; m < half; m++ {
				links = append(links, [2]int{e, numEdge + p*half + m})
			}
		}
		for a := 0; a < numAgg; a++ {
			weight[numEdge+a] = 1
			m := a % half
			for c := 0; c < half; c++ {
				links = append(links, [2]int{numEdge + a, numEdge + numAgg + m*half + c})
			}
		}
		for j := 0; j < numCore; j++ {
			weight[numEdge+numAgg+j] = 1
		}
		assign := Partition(numSw, shards, weight, links)
		copy(bp.edgeShard, assign[:numEdge])
		copy(bp.aggShard, assign[numEdge:numEdge+numAgg])
		copy(bp.coreShard, assign[numEdge+numAgg:])
	}

	bp.portGroup = make([][]int, k)
	for i := range bp.portGroup {
		bp.portGroup[i] = []int{i}
	}
	bp.uplinks = make([]int, half)
	for c := range bp.uplinks {
		bp.uplinks[c] = half + c
	}
	// Every edge switch forwards its half local hosts the same way
	// relative to its offset; likewise every pod's aggregation table.
	bp.edgeTbl = make([][]int, half)
	for j := 0; j < half; j++ {
		bp.edgeTbl[j] = bp.portGroup[j]
	}
	bp.aggTbl = make([][]int, podHosts)
	for h := 0; h < podHosts; h++ {
		bp.aggTbl[h] = bp.portGroup[h/half]
	}
	bp.coreTbl = make([][]int, numHosts)
	for h := 0; h < numHosts; h++ {
		bp.coreTbl[h] = bp.portGroup[h/podHosts]
	}
	bp.edgeFlat = fabric.FlatRoutes(bp.edgeTbl)
	bp.aggFlat = fabric.FlatRoutes(bp.aggTbl)
	bp.coreFlat = fabric.FlatRoutes(bp.coreTbl)
	ftCache[key] = bp
	return bp
}

// leafSpineBlueprint returns the shared skeleton for a leaf-spine
// fabric of the given shape.
func leafSpineBlueprint(spines, tors, hostsPerTor, shards int, sharded bool) *lsBlueprint {
	key := lsKey{spines: spines, tors: tors, hostsPerTor: hostsPerTor, shards: shards, sharded: sharded}
	bpMu.Lock()
	defer bpMu.Unlock()
	if bp, ok := lsCache[key]; ok {
		return bp
	}
	numHosts := tors * hostsPerTor
	bp := &lsBlueprint{
		torShard:   make([]int, tors),
		spineShard: make([]int, spines),
	}
	if sharded {
		// ToRs weigh their attached hosts, every uplink is an affinity
		// edge.
		weight := make([]int, tors+spines)
		var links [][2]int
		for t := 0; t < tors; t++ {
			weight[t] = 1 + hostsPerTor
			for c := 0; c < spines; c++ {
				links = append(links, [2]int{t, tors + c})
			}
		}
		for c := 0; c < spines; c++ {
			weight[tors+c] = 1
		}
		assign := Partition(tors+spines, shards, weight, links)
		copy(bp.torShard, assign[:tors])
		copy(bp.spineShard, assign[tors:])
	}
	bp.uplinks = make([]int, spines)
	for c := range bp.uplinks {
		bp.uplinks[c] = hostsPerTor + c
	}
	// ToR down-port groups: one singleton per local host.
	hostPort := make([][]int, hostsPerTor)
	for p := range hostPort {
		hostPort[p] = []int{p}
	}
	// Spine down-port groups: one singleton per ToR.
	torPort := make([][]int, tors)
	for t := range torPort {
		torPort[t] = []int{t}
	}
	bp.spineTbl = make([][]int, numHosts)
	for h := 0; h < numHosts; h++ {
		bp.spineTbl[h] = torPort[h/hostsPerTor]
	}
	bp.spineFlat = fabric.FlatRoutes(bp.spineTbl)
	bp.torTbl = make([][][]int, tors)
	bp.torFlat = make([][]int32, tors)
	for t := range bp.torTbl {
		tbl := make([][]int, numHosts)
		for h := range tbl {
			if h/hostsPerTor == t {
				tbl[h] = hostPort[h%hostsPerTor]
			} else {
				tbl[h] = bp.uplinks
			}
		}
		bp.torTbl[t], bp.torFlat[t] = tbl, fabric.FlatRoutes(tbl)
	}
	lsCache[key] = bp
	return bp
}
