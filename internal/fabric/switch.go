package fabric

import (
	"fmt"

	"tlt/internal/packet"
	"tlt/internal/sim"
)

// ECNMode selects the marking discipline at egress queues.
type ECNMode uint8

// Marking disciplines.
const (
	ECNOff  ECNMode = iota
	ECNStep         // DCTCP: mark all when instantaneous queue > KEcn
	ECNRed          // DCQCN: probabilistic between KMin and KMax
)

// SwitchConfig models the shared-buffer memory management unit of a
// commodity chip plus the features TLT relies on.
type SwitchConfig struct {
	Ports       int
	BufferBytes int64   // total shared buffer
	Alpha       float64 // dynamic threshold parameter (Choudhury–Hahne)

	// TrafficClasses is the number of egress queues per port (default
	// 1). With more than one class, packets are enqueued by their TC
	// field and the port serves classes round-robin. This models the
	// paper's incremental-deployment mode (§5.3): TLT traffic rides a
	// dedicated queue (class 0) with color-aware dropping enabled while
	// legacy traffic uses a separate queue without it.
	TrafficClasses int

	// ColorThreshold is the color-aware dropping threshold K: a red
	// (unimportant) packet is dropped when the target egress queue
	// already holds at least K bytes. Zero disables color-aware dropping
	// (non-TLT operation).
	//
	// Class restriction: with multiple traffic classes, the threshold by
	// default applies ONLY to class 0 — the dedicated TLT queue of the
	// paper's incremental-deployment mode (§5.3), where legacy traffic
	// rides other classes without color semantics. Red packets on
	// classes ≥ 1 therefore bypass the color check entirely. Set
	// ColorAllClasses to extend the threshold to every class (full-
	// deployment operation where all queues carry colored traffic).
	ColorThreshold int64
	// ColorAllClasses applies ColorThreshold to every traffic class
	// instead of class 0 only. See ColorThreshold.
	ColorAllClasses bool

	// MMU selects the shared-buffer admission policy by registered name.
	// "" and "ch" are the built-in Choudhury–Hahne dynamic threshold +
	// TLT color dropping; internal/fabric/mmu registers "bshare"
	// (queueing-delay-driven sharing) and "tiny" (shallow-buffer
	// regime). Unknown names panic at switch construction.
	MMU string
	// FC selects the flow-control policy: "" keeps the legacy meaning of
	// the PFC flag (PFC iff PFC is set), "pfc" forces PFC, "none"
	// disables flow control even with PFC set, and internal/fabric/mmu
	// registers "bfc" (per-hop backpressure). Unknown names panic.
	FC string
	// MMUDiv is the tiny-buffer policy's capacity divisor: the effective
	// shared buffer is BufferBytes/MMUDiv (0 → 10).
	MMUDiv float64
	// MMUTargetDelay is BShare's per-queue queueing-delay target (0 →
	// 10 µs): queues whose estimated drain delay exceeds it get their
	// dynamic threshold scaled down by MMUGamma per target multiple.
	MMUTargetDelay sim.Time
	// MMUGamma is BShare's threshold decay base, in (0, 1) (0 → 0.5).
	MMUGamma float64

	ECN  ECNMode
	KEcn int64 // step threshold
	KMin int64 // RED min
	KMax int64 // RED max
	PMax float64

	// PFC enables priority flow control: per-ingress-port accounting
	// with XOFF/XON thresholds. When PFC is on, the egress dynamic
	// threshold no longer drops (lossless class); only physical buffer
	// exhaustion can drop.
	PFC  bool
	XOff int64
	XOn  int64

	// PFCWatchdog enables the commodity-style pause watchdog (Broadcom
	// and Mellanox chips ship one): when an egress port has been
	// continuously paused by received PAUSE frames for
	// WatchdogThreshold, the switch drops everything queued on that
	// port, unpauses it, and ignores further PAUSE frames on it until
	// WatchdogRestore has elapsed (drop-and-unpause mitigation). This
	// is the data-plane defence against PFC storms and deadlocks.
	PFCWatchdog       bool
	WatchdogThreshold sim.Time
	WatchdogRestore   sim.Time

	// INT enables in-band network telemetry stamping (HPCC).
	INT bool
}

func (c *SwitchConfig) classes() int {
	if c.TrafficClasses <= 1 {
		return 1
	}
	return c.TrafficClasses
}

// Counters aggregates data-plane statistics for one switch.
type Counters struct {
	DropRedColor   int64 // red dropped by color-aware threshold
	DropDynamic    int64 // dropped by dynamic shared-buffer threshold
	DropBufferFull int64 // dropped because the physical buffer was full
	DropPolicy     int64 // dropped by a non-default BufferPolicy threshold
	DropGreen      int64 // subset of the above that were green (important)
	EnqGreen       int64
	EnqRed         int64
	ECNMarked      int64
	PauseFrames    int64
	ResumeFrames   int64
	INTOverflow    int64 // INT stamps that spilled past packet.MaxINTHops

	WatchdogFires  int64 // PFC watchdog drop-and-unpause mitigations
	WatchdogDrops  int64 // packets flushed by watchdog mitigation
	DropSwitchFail int64 // packets black-holed or flushed by switch failure
}

// Add accumulates other into c.
func (c *Counters) Add(o *Counters) {
	c.DropRedColor += o.DropRedColor
	c.DropDynamic += o.DropDynamic
	c.DropBufferFull += o.DropBufferFull
	c.DropPolicy += o.DropPolicy
	c.DropGreen += o.DropGreen
	c.EnqGreen += o.EnqGreen
	c.EnqRed += o.EnqRed
	c.ECNMarked += o.ECNMarked
	c.PauseFrames += o.PauseFrames
	c.ResumeFrames += o.ResumeFrames
	c.INTOverflow += o.INTOverflow
	c.WatchdogFires += o.WatchdogFires
	c.WatchdogDrops += o.WatchdogDrops
	c.DropSwitchFail += o.DropSwitchFail
}

// TotalDrops returns all drops regardless of cause.
func (c *Counters) TotalDrops() int64 {
	return c.DropRedColor + c.DropDynamic + c.DropBufferFull + c.DropPolicy
}

// swEnt is one queued packet plus the byte accounting popFront needs:
// carrying size, color and the ingress port (for per-ingress PFC
// accounting) in the FIFO entry keeps the pop path off the packet's (long
// since evicted) cache line. in fits the padding: the entry stays 16 bytes.
type swEnt struct {
	pkt *packet.Packet
	sz  int32
	red bool
	in  uint16
}

// swQueue is one egress FIFO (one traffic class of one port).
type swQueue struct {
	queue []swEnt // FIFO; head at index pop
	pop   int
	peak  int   // longest queue has been, as of the last time it shrank
	bytes int64 // current depth in bytes
	red   int64 // red bytes currently queued

	maxBytes    int64 // high-water mark (Fig. 11b)
	maxRedBytes int64
}

// push appends pkt, arrived on ingress port in, to the FIFO. The caller
// passes the wire size (already computed for admission) so the hot path
// sizes each packet exactly once.
func (q *swQueue) push(pkt *packet.Packet, sz int64, in int) {
	red := pkt.Mark.Color() == packet.Red
	q.queue = append(q.queue, swEnt{pkt: pkt, sz: int32(sz), red: red, in: uint16(in)})
	q.bytes += sz
	if red {
		q.red += sz
	}
	if q.bytes > q.maxBytes {
		q.maxBytes = q.bytes
	}
	if q.red > q.maxRedBytes {
		q.maxRedBytes = q.red
	}
}

// popFront removes and returns the head packet, its wire size (stored at
// push time, then reused by the dequeue accounting) and its ingress port.
func (q *swQueue) popFront() (*packet.Packet, int64, int) {
	if q.pop >= len(q.queue) {
		return nil, 0, 0
	}
	e := q.queue[q.pop]
	q.queue[q.pop] = swEnt{}
	q.pop++
	if q.pop == len(q.queue) {
		q.peak = max(q.peak, q.pop)
		q.queue = q.queue[:0]
		q.pop = 0
	} else if q.pop > 1024 && q.pop*2 > len(q.queue) {
		q.peak = max(q.peak, len(q.queue))
		n := copy(q.queue, q.queue[q.pop:])
		q.queue = q.queue[:n]
		q.pop = 0
	}
	sz := int64(e.sz)
	q.bytes -= sz
	if e.red {
		q.red -= sz
	}
	return e.pkt, sz, int(e.in)
}

// swPort is one egress port: a set of class queues behind a transmitter.
// Ingress-side flow-control accounting (PFC's per-port byte counters,
// BFC's per-queue contributions) lives in the switch's FlowControl
// policy; only the watchdog state stays here because the watchdog
// reacts to received pauses regardless of the local policy.
type swPort struct {
	tx *Tx
	qs []swQueue
	rr int // round-robin pointer over classes

	wdPending     bool       // a watchdog check event is outstanding
	wdIgnoreUntil sim.Time   // PAUSE frames ignored until then (mitigation)
	wdEv          *sim.Event // preallocated watchdog check (lazily created)
	wdTimer       sim.Timer  // handle to the outstanding check (reboot cancels)
}

func (p *swPort) totalBytes() int64 {
	var n int64
	for i := range p.qs {
		n += p.qs[i].bytes
	}
	return n
}

// Switch is a shared-buffer output-queued switch.
type Switch struct {
	id    packet.NodeID
	sim   *sim.Sim
	rng   *sim.RNG
	cfg   SwitchConfig
	ports []*swPort

	used int64 // shared buffer occupancy

	// failed marks the switch dead (chaos SwitchFail): every arriving
	// packet is black-holed and egress serialization is frozen until
	// Reboot.
	failed bool

	// bufLimit caches policy.Capacity(): the effective shared-buffer
	// capacity used for admission. It normally equals the policy's
	// configured capacity (cfg.BufferBytes for the default policy);
	// chaos fault injection can shrink it for a window via ShrinkBuffer
	// (an MMU reconfiguration or partial memory failure). Already-
	// buffered bytes above a shrunken limit drain normally; only
	// admission is affected.
	bufLimit int64

	// policy is the admission strategy (cfg.MMU) and fc the pause/
	// resume strategy (cfg.FC / cfg.PFC), both bound at construction.
	// fc is nil when flow control is off — the common lossy case pays
	// only a nil check per packet. lossless caches fc.Lossless().
	policy   BufferPolicy
	fc       FlowControl
	lossless bool

	// routes maps destination host ID to the candidate egress ports
	// (ECMP group), indexed densely by NodeID minus routeBase. Set by
	// the topology builder; host IDs are small non-negative integers.
	// routeBase lets a switch whose specific entries cover only a high
	// contiguous ID range (a fat-tree edge switch and its k/2 local
	// hosts) skip the dense nil prefix that would otherwise cost
	// O(hosts) per switch.
	routes    [][]int
	routeBase int

	// route1 mirrors routes with the unicast fast path: entry d holds
	// the egress port when destination d's group has exactly one member,
	// else -1 (ECMP group, empty, missing). The common single-port
	// lookup is then one dense int32 load instead of a slice-header
	// load plus a group-element dereference. Shared-table installs pass
	// a precomputed projection so the O(hosts) flat array, like the
	// table itself, exists once per forwarding-equivalence class.
	route1 []int32

	// defaultRoute, when non-empty, is the ECMP group used for any
	// destination with no specific routes entry. Large Clos builders
	// use it for "everything not below me goes up", which keeps FIB
	// state O(local hosts) instead of O(all hosts) per switch.
	defaultRoute []int

	// pool, when set, recycles packets the switch drops at admission and
	// supplies PFC control frames, so neither path allocates.
	pool *packet.Pool

	// Ctr collects statistics.
	Ctr Counters

	// Audit, when non-nil, observes every enqueue/dequeue/drop and PFC
	// frame for runtime invariant checking. Nil in normal runs.
	Audit AuditHook
}

// NewSwitch builds a switch with cfg.Ports ports.
func NewSwitch(s *sim.Sim, id packet.NodeID, rng *sim.RNG, cfg SwitchConfig) *Switch {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	sw := &Switch{id: id, sim: s, rng: rng, cfg: cfg}
	sw.ports = make([]*swPort, cfg.Ports)
	for i := range sw.ports {
		sw.ports[i] = &swPort{qs: make([]swQueue, cfg.classes())}
	}
	// Flow control binds first so the buffer policy can capture whether
	// the fabric is lossless (dynamic thresholds disabled under PFC).
	sw.fc = newFlowControl(cfg)
	if sw.fc != nil {
		sw.fc.Bind(sw)
		sw.lossless = sw.fc.Lossless()
	}
	sw.policy = newBufferPolicy(cfg)
	sw.policy.Bind(sw)
	sw.bufLimit = sw.policy.Capacity()
	return sw
}

// ID returns the switch's node ID.
func (sw *Switch) ID() packet.NodeID { return sw.id }

// SetPool installs the packet free-list the switch recycles dropped
// packets to and draws PFC control frames from.
func (sw *Switch) SetPool(p *packet.Pool) { sw.pool = p }

// Config returns the switch configuration.
func (sw *Switch) Config() SwitchConfig { return sw.cfg }

// BufferUsed returns current shared-buffer occupancy in bytes.
func (sw *Switch) BufferUsed() int64 { return sw.used }

// BufferLimit returns the effective admission capacity in bytes.
func (sw *Switch) BufferLimit() int64 { return sw.bufLimit }

// ShrinkBuffer caps the effective admission capacity to frac of the
// installed buffer policy's configured capacity — the chaos engine's
// MMU-reconfiguration fault. frac outside (0, 1) restores the full
// capacity. Routing the shrink through the policy (rather than a raw
// byte limit) means a shallow-capacity policy like the tiny-buffer
// regime shrinks proportionally to its own capacity.
func (sw *Switch) ShrinkBuffer(frac float64) {
	sw.policy.Shrink(frac)
	sw.bufLimit = sw.policy.Capacity()
}

// Policy returns the installed buffer policy (the runtime auditor
// validates drop justifications against its view).
func (sw *Switch) Policy() BufferPolicy { return sw.policy }

// PolicyName returns the installed buffer policy's registered name.
func (sw *Switch) PolicyName() string { return sw.policy.Name() }

// FCName returns the installed flow-control policy's name ("none" when
// flow control is off).
func (sw *Switch) FCName() string {
	if sw.fc == nil {
		return "none"
	}
	return sw.fc.Name()
}

// Lossless reports whether the installed flow control claims lossless
// operation (admission suppresses threshold drops).
func (sw *Switch) Lossless() bool { return sw.lossless }

// SkewUsedForTest corrupts the MMU occupancy counter by delta bytes.
// Test-only: it exists so internal/audit can prove the runtime auditor
// detects accounting bugs; never call it from model code.
func (sw *Switch) SkewUsedForTest(delta int64) { sw.used += delta }

// QueueBytes returns the instantaneous depth of an egress port across
// all its class queues.
func (sw *Switch) QueueBytes(port int) int64 { return sw.ports[port].totalBytes() }

// ClassQueueBytes returns the instantaneous depth of one class queue.
func (sw *Switch) ClassQueueBytes(port, tc int) int64 { return sw.ports[port].qs[tc].bytes }

// RedQueueBytes returns the red (unimportant) bytes on an egress port.
func (sw *Switch) RedQueueBytes(port int) int64 {
	var n int64
	for i := range sw.ports[port].qs {
		n += sw.ports[port].qs[i].red
	}
	return n
}

// MaxQueueBytes returns the high-water mark across the port's queues.
func (sw *Switch) MaxQueueBytes(port int) int64 {
	var n int64
	for i := range sw.ports[port].qs {
		if m := sw.ports[port].qs[i].maxBytes; m > n {
			n = m
		}
	}
	return n
}

// MaxRedQueueBytes returns the high-water mark of red bytes on a port.
func (sw *Switch) MaxRedQueueBytes(port int) int64 {
	var n int64
	for i := range sw.ports[port].qs {
		if m := sw.ports[port].qs[i].maxRedBytes; m > n {
			n = m
		}
	}
	return n
}

// Tx returns the transmitter for a port (for pause-time accounting).
func (sw *Switch) Tx(port int) *Tx { return sw.ports[port].tx }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetRoute installs the ECMP egress port group for a destination host.
// Indexes are absolute NodeIDs; on a switch configured with
// SetRouteTableFlatAt the destination must be at or above the table base.
func (sw *Switch) SetRoute(dst packet.NodeID, egress []int) {
	d := int(dst) - sw.routeBase
	for d >= len(sw.routes) {
		sw.routes = append(sw.routes, nil)
		sw.route1 = append(sw.route1, -1)
	}
	sw.routes[d] = egress
	if len(egress) == 1 {
		sw.route1[d] = int32(egress[0])
	} else {
		sw.route1[d] = -1
	}
}

// SetRouteTableFlatAt installs a whole routing table covering
// destinations [base, base+len(table)), with its precomputed FlatRoutes
// projection; anything outside falls through to the default route.
// Fat-tree edge and aggregation switches use a base so a table over
// their local host range costs O(local hosts), not O(all hosts) of
// nil-prefix padding. Both slices may be shared between switches with
// identical forwarding behavior (all cores of a fat-tree, all aggregates
// of one pod), which collapses the dominant O(switches × hosts) FIB cost
// of big Clos fabrics to one table per equivalence class. Shared tables
// must not be mutated afterward via SetRoute/reroute.
func (sw *Switch) SetRouteTableFlatAt(base packet.NodeID, table [][]int, flat []int32) {
	sw.routes, sw.routeBase = table, int(base)
	sw.route1 = flat
}

// FlatRoutes computes the unicast projection of a routing table: the
// egress port for every single-port group, -1 elsewhere. The result may
// be shared between switches exactly like the table it was derived from.
func FlatRoutes(table [][]int) []int32 {
	flat := make([]int32, len(table))
	for i, g := range table {
		if len(g) == 1 {
			flat[i] = int32(g[0])
		} else {
			flat[i] = -1
		}
	}
	return flat
}

// SetDefaultRoute installs the ECMP group used when a destination has
// no specific entry (typically a Clos switch's uplinks).
func (sw *Switch) SetDefaultRoute(egress []int) { sw.defaultRoute = egress }

func (sw *Switch) attach(port int, tx *Tx) {
	p := sw.ports[port]
	p.tx = tx
	tx.dequeue = func() (*packet.Packet, int) { return sw.dequeue(port) }
	if sw.cfg.INT {
		tx.onTransmit = func(pkt *packet.Packet) {
			if pkt.Type == packet.Data {
				if pkt.AppendINT(sw.pool, packet.INTHop{
					QueueBytes: p.totalBytes(),
					TxBytes:    tx.TxBytes,
					Timestamp:  sw.sim.Now(),
					RateBps:    tx.RateBps,
				}) {
					sw.Ctr.INTOverflow++
				}
			}
		}
	}
}

// ecmpHash deterministically selects among n equal-cost ports for a flow.
func (sw *Switch) ecmpHash(flow packet.FlowID, n int) int {
	x := uint64(flow) ^ (uint64(sw.id) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// Receive implements Device: route, admit, enqueue.
func (sw *Switch) Receive(pkt *packet.Packet, inPort int) {
	if sw.failed {
		// Dead switch: everything that arrives is black-holed. PFC
		// control frames just vanish; routed packets are counted.
		if pkt.Type != packet.Pause && pkt.Type != packet.Resume {
			sw.Ctr.DropSwitchFail++
		}
		sw.pool.Put(pkt)
		return
	}
	switch pkt.Type {
	case packet.Pause:
		sw.pauseRx(inPort)
		sw.pool.Put(pkt)
		return
	case packet.Resume:
		sw.resumeRx(inPort)
		sw.pool.Put(pkt)
		return
	}

	d := int(pkt.Dst) - sw.routeBase
	if uint(d) < uint(len(sw.route1)) {
		if p := sw.route1[d]; p >= 0 {
			// Unicast fast path: the destination resolves to exactly
			// one egress port, read from the dense projection.
			sw.enqueue(pkt, inPort, int(p))
			return
		}
	}
	group := sw.defaultRoute
	if d >= 0 && d < len(sw.routes) {
		if g := sw.routes[d]; len(g) > 0 {
			group = g
		}
	}
	if len(group) == 0 {
		panic(fmt.Sprintf("switch %d: no route to %d", sw.id, pkt.Dst))
	}
	egress := group[0]
	if len(group) > 1 {
		egress = group[sw.ecmpHash(pkt.Flow, len(group))]
	}
	sw.enqueue(pkt, inPort, egress)
}

func (sw *Switch) enqueue(pkt *packet.Packet, inPort, egress int) {
	p := sw.ports[egress]
	tc := int(pkt.TC)
	if tc >= len(p.qs) {
		tc = len(p.qs) - 1
	}
	q := &p.qs[tc]
	size := int64(pkt.WireSize())
	free := sw.bufLimit - sw.used
	green := pkt.Mark.Color() == packet.Green

	// Admission control, delegated to the bound BufferPolicy. Rejected
	// packets die here: once the audit hook has seen them they go back
	// to the free list.
	if reason, ok := sw.policy.Admit(egress, tc, q.bytes, free, size, green); !ok {
		switch reason {
		case DropReasonBufferFull:
			sw.drop(pkt, &sw.Ctr.DropBufferFull)
		case DropReasonColor:
			sw.Ctr.DropRedColor++
		case DropReasonDynamic:
			sw.drop(pkt, &sw.Ctr.DropDynamic)
		default:
			sw.drop(pkt, &sw.Ctr.DropPolicy)
		}
		if sw.Audit != nil {
			sw.Audit.OnDrop(sw, egress, tc, pkt, reason, q.bytes, free)
		}
		sw.pool.Put(pkt)
		return
	}

	// ECN marking on the instantaneous queue at enqueue time.
	if pkt.ECT && !pkt.CE {
		switch sw.cfg.ECN {
		case ECNStep:
			if q.bytes+size > sw.cfg.KEcn {
				pkt.CE = true
				sw.Ctr.ECNMarked++
			}
		case ECNRed:
			depth := q.bytes + size
			var prob float64
			switch {
			case depth <= sw.cfg.KMin:
				prob = 0
			case depth >= sw.cfg.KMax:
				prob = 1
			default:
				prob = sw.cfg.PMax * float64(depth-sw.cfg.KMin) / float64(sw.cfg.KMax-sw.cfg.KMin)
			}
			if prob > 0 && sw.rng.Float64() < prob {
				pkt.CE = true
				sw.Ctr.ECNMarked++
			}
		}
	}

	if green {
		sw.Ctr.EnqGreen++
	} else {
		sw.Ctr.EnqRed++
	}

	sw.used += size
	q.push(pkt, size, inPort)
	if sw.Audit != nil {
		sw.Audit.OnEnqueue(sw, egress, tc, pkt)
	}

	// Flow-control ingress accounting (PFC XOFF thresholds, BFC per-hop
	// queue backpressure): the policy may pause upstream transmitters.
	if sw.fc != nil {
		sw.fc.OnEnqueue(inPort, egress, tc, size)
	}

	p.tx.Kick()
}

func (sw *Switch) drop(pkt *packet.Packet, ctr *int64) {
	*ctr++
	if pkt.Mark.Color() == packet.Green {
		sw.Ctr.DropGreen++
	}
}

// dequeue serves the port's class queues round-robin.
func (sw *Switch) dequeue(port int) (*packet.Packet, int) {
	p := sw.ports[port]
	var pkt *packet.Packet
	var size int64
	tc, in := 0, 0
	for i := 0; i < len(p.qs); i++ {
		cls := p.rr
		q := &p.qs[cls]
		p.rr++
		if p.rr == len(p.qs) {
			p.rr = 0
		}
		if pkt, size, in = q.popFront(); pkt != nil {
			tc = cls
			break
		}
	}
	if pkt == nil {
		return nil, 0
	}
	sw.used -= size
	if sw.Audit != nil {
		sw.Audit.OnDequeue(sw, port, tc, pkt)
	}

	if sw.fc != nil {
		sw.fc.OnDequeue(in, port, tc, size)
	}
	return pkt, int(size)
}

// pauseRx handles a received PFC PAUSE frame for an egress port.
func (sw *Switch) pauseRx(port int) {
	p := sw.ports[port]
	if sw.cfg.PFCWatchdog && sw.sim.Now() < p.wdIgnoreUntil {
		// Mitigation window after a watchdog fire: the port stays up no
		// matter how hard the peer storms.
		return
	}
	wasPaused := p.tx.Paused()
	p.tx.Pause()
	if !wasPaused && sw.Audit != nil {
		sw.Audit.OnPauseRx(sw, port, true)
	}
	if sw.cfg.PFCWatchdog && !p.wdPending {
		p.wdPending = true
		if p.wdEv == nil {
			p.wdEv = sw.sim.NewKindEvent(kindWatchdogCheck, 0, &wdRef{sw: sw, port: port})
		}
		p.wdTimer = sw.sim.Schedule(p.wdEv, sw.sim.Now()+sw.cfg.WatchdogThreshold)
	}
}

// resumeRx handles a received PFC RESUME frame for an egress port.
func (sw *Switch) resumeRx(port int) {
	p := sw.ports[port]
	if p.tx.Paused() && sw.Audit != nil {
		sw.Audit.OnPauseRx(sw, port, false)
	}
	p.tx.Resume()
}

// watchdogCheck fires WatchdogThreshold after a port became paused: if
// the port has now been continuously paused for at least the threshold,
// the watchdog mitigates; if the pause stretch restarted meanwhile it
// re-arms for the instant the current stretch would cross the threshold.
func (sw *Switch) watchdogCheck(port int) {
	p := sw.ports[port]
	p.wdPending = false
	if sw.failed || !p.tx.Paused() {
		return
	}
	since := p.tx.PausedSince()
	if sw.sim.Now()-since < sw.cfg.WatchdogThreshold {
		p.wdPending = true
		p.wdTimer = sw.sim.Schedule(p.wdEv, since+sw.cfg.WatchdogThreshold)
		return
	}
	// Drop-and-unpause: everything queued behind the stuck port is
	// dropped (crediting PFC ingress accounting so upstream unpauses),
	// the port resumes, and PAUSE frames are ignored for the restore
	// window.
	sw.Ctr.WatchdogFires++
	sw.Ctr.WatchdogDrops += sw.flushPort(port, DropReasonWatchdog, true)
	p.wdIgnoreUntil = sw.sim.Now() + sw.cfg.WatchdogRestore
	if sw.Audit != nil {
		sw.Audit.OnPauseRx(sw, port, false)
	}
	p.tx.Resume()
}

// flushPort drops every packet queued on an egress port, returning the
// count. credit releases flow-control accounting per packet (watchdog
// mitigation); a rebooting switch resets that state wholesale instead.
// With no flow control bound, crediting is inert — the watchdog works
// identically whether the local policy is PFC, BFC or nothing.
func (sw *Switch) flushPort(port int, reason DropReason, credit bool) int64 {
	p := sw.ports[port]
	var n int64
	for c := range p.qs {
		q := &p.qs[c]
		for {
			pkt, size, in := q.popFront()
			if pkt == nil {
				break
			}
			sw.used -= size
			n++
			if pkt.Mark.Color() == packet.Green {
				sw.Ctr.DropGreen++
			}
			if sw.Audit != nil {
				sw.Audit.OnDrop(sw, port, c, pkt, reason, q.bytes, sw.bufLimit-sw.used)
			}
			if credit && sw.fc != nil {
				sw.fc.OnDequeue(in, port, c, size)
			}
			sw.pool.Put(pkt)
		}
	}
	return n
}

// Fail kills the switch: every packet arriving while it is down is
// black-holed, and egress serialization freezes after the frames already
// on the wire (the cables are intact; the forwarding plane is gone).
func (sw *Switch) Fail() {
	if sw.failed {
		return
	}
	sw.failed = true
	for _, p := range sw.ports {
		p.tx.Freeze()
	}
}

// Failed reports whether the switch is currently dead.
func (sw *Switch) Failed() bool { return sw.failed }

// Reboot restores a failed switch with a factory-fresh MMU: buffered
// packets are lost (counted as switch-fail drops), flow-control
// accounting, pause state and watchdog state restart from zero. The
// installed policies survive the reboot (the chip's configuration is
// persistent) but their per-run state resets. Peers the dead switch had
// XOFF'd are NOT resumed — that state died with it; their own pause
// timeout or watchdog must release them.
func (sw *Switch) Reboot() {
	if !sw.failed {
		return
	}
	for i := range sw.ports {
		sw.Ctr.DropSwitchFail += sw.flushPort(i, DropReasonSwitchFail, false)
	}
	sw.failed = false
	sw.policy.Reset()
	sw.bufLimit = sw.policy.Capacity()
	if sw.fc != nil {
		sw.fc.Reset()
	}
	for _, p := range sw.ports {
		p.wdPending = false
		// The check event may still be outstanding from before the
		// failure; cancel it so the fresh watchdog state can re-arm.
		p.wdTimer.Stop()
		p.wdIgnoreUntil = 0
		p.tx.Resume() // received-pause state was lost with the reboot
		p.tx.Unfreeze()
	}
	if sw.Audit != nil {
		sw.Audit.OnReset(sw)
	}
}
