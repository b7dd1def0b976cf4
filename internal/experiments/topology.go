package experiments

import (
	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/topo"
	"tlt/internal/transport"
)

// A Topology builds the network a cell runs on for variant v, and the
// shard group it runs on: shards of them, with the fabric's link delay
// as lookahead, or one if the fabric cannot be partitioned (the testbed
// star, the dumbbell). seed salts the fabric's RNGs.
type Topology interface {
	build(v Variant, seed int64, shards int) (*sim.Group, *topo.Network)
}

// leafSpine is the paper's simulation fabric (§7.1), the default
// topology. Its fields are one figure's switch knobs; zero keeps the
// variant's.
type leafSpine struct {
	alpha  float64 // dynamic-threshold alpha (ablation-alpha)
	buffer int64   // shared buffer bytes (ablation-buffer); PFC XOFF/XON follow it
	// watchdog flushes and unpauses a switch port paused this long, and
	// pauseExpiry ends a host NIC's unrefreshed PAUSE after this long:
	// failure-recovery's pause-storm mitigation.
	watchdog, pauseExpiry sim.Time
}

func (t leafSpine) build(v Variant, seed int64, shards int) (*sim.Group, *topo.Network) {
	g := sim.NewGroup(shards, v.linkDelay())
	cfg := topo.DefaultLeafSpine(v.linkDelay())
	cfg.Group, cfg.Switch, cfg.SeedSalt = g, v.switchConfig(), seed
	sc := &cfg.Switch
	if t.alpha > 0 {
		sc.Alpha = t.alpha
	}
	if t.buffer > 0 {
		sc.BufferBytes = t.buffer
		if sc.PFC {
			sc.XOff = sc.BufferBytes / (2 * 12)
			sc.XOn = sc.XOff - 2*int64(transport.MSS+48)
		}
	}
	if t.watchdog > 0 {
		sc.PFCWatchdog, sc.WatchdogThreshold = true, t.watchdog
	}
	cfg.HostPauseTimeout = t.pauseExpiry
	return g, topo.LeafSpine(g.Shard(0), cfg)
}

// fatTree is the scale sweep's k-ary fat-tree of 40 Gbps links.
type fatTree struct{ k int }

func (t fatTree) build(v Variant, seed int64, shards int) (*sim.Group, *topo.Network) {
	g := sim.NewGroup(shards, v.linkDelay())
	return g, topo.FatTree(g.Shard(0), topo.FatTreeConfig{
		K:           t.k,
		LinkRateBps: 40e9,
		LinkDelay:   v.linkDelay(),
		Switch:      v.switchConfig(),
		SeedSalt:    seed,
		Group:       g,
	})
}

// testbedStar is the testbed model of §6 (Figs. 12–14): one
// Tomahawk-class switch whose dynamic allocation lets a single busy port
// absorb up to ~1.8 MB, color threshold 270 kB (~BDP), ECN at 200 kB.
type testbedStar struct{ hosts int }

func (t testbedStar) build(v Variant, _ int64, _ int) (*sim.Group, *topo.Network) {
	g := sim.NewGroup(1, 2*sim.Microsecond)
	swc := v.switchConfig()
	swc.BufferBytes = 3_600_000
	if v.TLT {
		swc.ColorThreshold = 270_000
	}
	return g, topo.Star(g.Shard(0), topo.StarConfig{
		Hosts:       t.hosts,
		LinkRateBps: 40e9,
		LinkDelay:   2 * sim.Microsecond,
		Switch:      swc,
	})
}

// dumbbellNet is §7.4's PFC dumbbell on the Aurora 420 testbed
// (Netberg, Trident II: 12 MB shared buffer): seven hosts on the left
// switch, two on the right, hosts at 10 GbE and a 40 GbE inter-switch
// link. The foreground bottleneck is the receiver's access port; the
// background flow shares only the cross link and the senders' ingress
// ports — exactly the HoL-blocking setup.
type dumbbellNet struct{}

func (dumbbellNet) build(v Variant, seed int64, _ int) (*sim.Group, *topo.Network) {
	g := sim.NewGroup(1, 2*sim.Microsecond)
	swc := fabric.SwitchConfig{
		BufferBytes: 12_000_000,
		Alpha:       1,
		ECN:         fabric.ECNStep,
		KEcn:        200_000,
		PFC:         true,
		MMU:         v.MMU,
		FC:          v.FC,
	}
	swc.XOff = swc.BufferBytes / 32
	swc.XOn = swc.XOff - 2096
	if v.TLT {
		swc.ColorThreshold = 270_000
	}
	return g, topo.Dumbbell(g.Shard(0), topo.DumbbellConfig{
		LeftHosts: 7, RightHosts: 2,
		LinkRateBps:  10e9,
		CrossRateBps: 40e9,
		LinkDelay:    2 * sim.Microsecond,
		Switch:       swc,
		SeedSalt:     seed,
	})
}
