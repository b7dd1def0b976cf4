// Package fabric models the network data plane: point-to-point links,
// shared-buffer switches with color-aware dropping, ECN marking and PFC,
// and host NICs. All behaviour is restricted to what commodity switching
// chips (Broadcom Trident/Tomahawk class) expose, per the paper's
// deployment-friendliness goal.
package fabric

import (
	"tlt/internal/packet"
	"tlt/internal/sim"
)

// Device is anything with ports that can receive packets: a Switch or a Host.
type Device interface {
	ID() packet.NodeID
	// Receive is called when a packet has fully arrived on inPort.
	Receive(pkt *packet.Packet, inPort int)
	// attach registers the transmitter serving outbound traffic on port.
	attach(port int, tx *Tx)
}

// SerTime returns the serialization delay of size bytes at rateBps.
func SerTime(size int, rateBps int64) sim.Time {
	// ceil(size*8*1e9 / rateBps) in ns.
	bits := int64(size) * 8
	return sim.Time((bits*int64(sim.Second) + rateBps - 1) / rateBps)
}

// Typed event kinds for the fabric hot paths: every wire arrival, Tx
// serialization completion and pause expiry in the network fires through
// one of these static handlers instead of a per-object closure. Kind
// values play no part in (time, seq) ordering, so registration order is
// irrelevant to determinism.
var (
	kindWireArrive = sim.NewKind(func(tgt, arg any) {
		tgt.(*Wire).arrive(arg.(*packet.Packet))
	})
	kindTxSerDone = sim.NewKind(func(_, arg any) {
		arg.(*Tx).serDone()
	})
	kindTxPauseExpiry = sim.NewKind(func(_, arg any) {
		arg.(*Tx).pauseExpiryCheck()
	})
	kindWatchdogCheck = sim.NewKind(func(_, arg any) {
		r := arg.(*wdRef)
		r.sw.watchdogCheck(r.port)
	})
)

// geLoss is a two-state Gilbert–Elliott Markov loss process: the channel
// alternates between a good and a bad state with per-packet transition
// probabilities, and drops packets with a state-dependent probability.
// It generalizes uniform InjectLoss to the bursty losses of marginal
// optics and dirty connectors.
type geLoss struct {
	bad      bool
	pGoodBad float64 // P(good→bad) evaluated per packet
	pBadGood float64 // P(bad→good) evaluated per packet
	lossGood float64 // drop probability in the good state (usually 0)
	lossBad  float64 // drop probability in the bad state
	rng      *sim.RNG
}

// drop advances the channel state for one packet and reports loss.
func (g *geLoss) drop() bool {
	if g.bad {
		if g.rng.Float64() < g.pBadGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.pGoodBad {
		g.bad = true
	}
	p := g.lossGood
	if g.bad {
		p = g.lossBad
	}
	return p > 0 && g.rng.Float64() < p
}

// Wire is a unidirectional propagation-delay element between two ports.
//
// Each in-flight packet rides one pooled scheduler node with a stored
// monomorphic handler, so the arrival path allocates nothing. A fully
// fused single arrival event per wire (a FIFO of in-flight packets behind
// one self-rescheduling event) was tried and rejected: it assigns event
// sequence numbers at re-schedule time instead of hand-off time, which
// permutes same-instant arrivals relative to the seed scheduler and
// breaks the byte-identical-reports contract.
type Wire struct {
	// Field order is deliberate: everything Deliver touches per packet
	// (sim, delay, group routing state, the down/hasLoss gates) packs
	// into the leading cache line; loss-model details and counters live
	// behind the hasLoss gate and stay cold.
	sim   *sim.Sim
	delay sim.Time

	// group, when set, hands arrivals to the shard group (its mailboxes,
	// or at one shard its deferred list) instead of posting directly:
	// the destination device
	// lives on shard dstShard, and the (id, seq) pair gives every
	// hand-off a unique key so barrier injection order — and therefore
	// the destination's event sequence — is independent of how the
	// topology was partitioned. Topology builders mailbox ALL
	// inter-switch wires at every shard count (including one) so the
	// canonical order is the only order that ever exists.
	group    *sim.Group
	srcShard int
	dstShard int

	// tgt is the wire's dispatch-target id, registered on the simulator
	// that executes its arrivals (the destination shard's sim when the
	// wire crosses the group mailboxes).
	tgt uint32
	id  uint32
	seq uint32

	// down marks the source half of a dead link: everything handed to
	// the wire is lost. It is owned by the source shard.
	down bool
	// arrDown marks the arrival half: packets still propagating when
	// the link went down are lost at their arrival instant. It is owned
	// by the destination shard, so a cross-shard link can be killed at
	// the same simulated instant on both sides without a data race.
	arrDown bool
	// hasLoss caches whether ANY loss model (uniform, Gilbert–Elliott,
	// drop filter) is installed, so the common lossless wire pays one
	// boolean test instead of three cold-field checks per delivery.
	hasLoss bool

	to     Device
	toPort int

	// Random non-congestion loss injection (cabling faults, silent
	// corruption): every packet is dropped with probability lossRate.
	lossRate float64
	lossRng  *sim.RNG
	// ge, when set, applies bursty Gilbert–Elliott loss.
	ge *geLoss
	// dropFilter, when set, drops every packet it returns true for
	// (deterministic fault injection for scenario tests).
	dropFilter func(*packet.Packet) bool
	// Dropped counts injected losses (uniform + filter).
	Dropped int64
	// DownDropped counts packets lost to a dead link at hand-off
	// (source side).
	DownDropped int64
	// arrDownDropped counts packets lost in flight at their arrival
	// instant (destination side).
	arrDownDropped int64
	// GEDropped counts Gilbert–Elliott losses.
	GEDropped int64
}

func newWire(s *sim.Sim, delay sim.Time, to Device, toPort int) *Wire {
	return &Wire{sim: s, delay: delay, to: to, toPort: toPort}
}

// dropLossy runs the configured loss models against one packet and
// reports whether it was consumed. Only called when hasLoss is set.
func (w *Wire) dropLossy(pkt *packet.Packet) bool {
	if w.lossRate > 0 && w.lossRng.Float64() < w.lossRate {
		w.Dropped++
		return true
	}
	if w.ge != nil && w.ge.drop() {
		w.GEDropped++
		return true
	}
	if w.dropFilter != nil && w.dropFilter(pkt) {
		w.Dropped++
		return true
	}
	return false
}

// syncHasLoss recomputes the Deliver fast-path gate after a loss-model
// setter runs.
func (w *Wire) syncHasLoss() {
	w.hasLoss = w.lossRate > 0 || w.ge != nil || w.dropFilter != nil
}

// arrive lands a fully-propagated packet on the destination port. It is
// the kindWireArrive handler body and always runs on the simulator the
// wire registered with (the destination shard for mailboxed wires).
func (w *Wire) arrive(pkt *packet.Packet) {
	if w.arrDown {
		// The link died while this packet was in flight.
		w.arrDownDropped++
		return
	}
	w.to.Receive(pkt, w.toPort)
}

// Deliver schedules arrival of a fully-serialized packet after the
// propagation delay (store-and-forward at the next hop). On a plain wire
// the node is taken from the scheduler pool and the sequence number is
// assigned here, at hand-off time. A mailboxed wire hands the packet to
// its group instead, keyed by wire id and per-wire sequence: the
// destination's sequence number is assigned at the next window barrier,
// in (arrival, key) order, whatever the shard count.
func (w *Wire) Deliver(pkt *packet.Packet) {
	if w.down {
		w.DownDropped++
		return
	}
	if w.hasLoss && w.dropLossy(pkt) {
		return
	}
	if w.group != nil {
		w.seq++
		key := uint64(w.id)<<32 | uint64(w.seq)
		w.group.SendKind(w.srcShard, w.dstShard, w.sim.Now()+w.delay, key, kindWireArrive, w.tgt, pkt)
		return
	}
	w.sim.PostKind(w.sim.Now()+w.delay, kindWireArrive, w.tgt, pkt)
}

// Tx serializes packets onto a wire at a fixed line rate, honoring PFC
// pause. It pulls packets from its owner through the dequeue callback.
type Tx struct {
	sim     *sim.Sim
	RateBps int64
	wire    *Wire
	shard   int // shard owning this transmitter (0 outside groups)

	busy   bool
	paused bool
	down   bool // link administratively/physically dead (fault injection)
	frozen bool // transmitter stalled with the wire intact (NIC freeze)

	pausedSince sim.Time
	// PausedTotal accumulates wall-clock time this transmitter spent in
	// the PFC-paused state (for the paper's Fig. 7c).
	PausedTotal sim.Time

	// pauseTimeout, when non-zero, bounds how long a pause stays latched
	// without being refreshed: PFC PAUSE frames carry finite quanta, so a
	// transmitter paused by a peer that then dies must not stay wedged
	// forever. Each Pause() refreshes the expiry. Zero keeps the seed
	// model's latched semantics (pause until explicit RESUME).
	pauseTimeout sim.Time
	pauseExpiry  sim.Time
	expiryArmed  bool
	pauseEv      *sim.Event // preallocated expiry event (lazily created)
	// PauseExpires counts pauses released by the timeout rather than an
	// explicit RESUME.
	PauseExpires int64

	// TxBytes counts cumulative bytes serialized, exposed via INT.
	TxBytes int64

	// dequeue returns the next packet to transmit (nil if none) and its
	// wire size. Owners track sizes at enqueue time, so serialization
	// never recomputes WireSize on a cache-cold packet.
	dequeue func() (*packet.Packet, int)
	// onTransmit, if set, runs when a packet begins serialization (used
	// by switches to stamp INT telemetry).
	onTransmit func(*packet.Packet)

	cur *packet.Packet // packet currently serializing
	ev  *sim.Event     // preallocated serialization-done event

	// ser0/ser1 memoize SerTime for the two wire sizes that dominate
	// any run (MSS-sized data and minimum-size ACKs), replacing a
	// 64-bit division per frame with an integer compare. serRate guards
	// the cache against a caller changing RateBps mid-run.
	ser0Size, ser1Size int
	ser0, ser1         sim.Time
	serRate            int64
}

// serTimeFor returns SerTime(size, tx.RateBps) through the two-entry
// memo. Wire sizes are never zero, so the zero value is an empty cache.
func (tx *Tx) serTimeFor(size int) sim.Time {
	if tx.serRate != tx.RateBps {
		tx.serRate = tx.RateBps
		tx.ser0Size, tx.ser1Size = 0, 0
	}
	if size == tx.ser0Size {
		return tx.ser0
	}
	if size == tx.ser1Size {
		tx.ser0Size, tx.ser1Size = tx.ser1Size, tx.ser0Size
		tx.ser0, tx.ser1 = tx.ser1, tx.ser0
		return tx.ser0
	}
	tx.ser1Size, tx.ser1 = tx.ser0Size, tx.ser0
	tx.ser0Size = size
	tx.ser0 = SerTime(size, tx.RateBps)
	return tx.ser0
}

// wdRef binds a switch's PFC watchdog check to one port; one is created
// per watched port so the recurring check fires through kindWatchdogCheck
// without a closure per arm.
type wdRef struct {
	sw   *Switch
	port int
}

// blocked reports whether the transmitter may not start a new frame.
func (tx *Tx) blocked() bool { return tx.paused || tx.down || tx.frozen }

// Kick starts transmission if the link is idle, up, and not paused.
func (tx *Tx) Kick() {
	if !tx.busy && !tx.blocked() {
		tx.startNext()
	}
}

func (tx *Tx) startNext() {
	pkt, size := tx.dequeue()
	if pkt == nil {
		return
	}
	tx.TxBytes += int64(size)
	if tx.onTransmit != nil {
		tx.onTransmit(pkt)
	}
	tx.busy = true
	tx.cur = pkt
	tx.sim.Schedule(tx.ev, tx.sim.Now()+tx.serTimeFor(size))
}

func (tx *Tx) serDone() {
	tx.busy = false
	pkt := tx.cur
	tx.cur = nil
	tx.wire.Deliver(pkt)
	if !tx.blocked() {
		tx.startNext()
	}
}

// Pause stops the transmitter after the in-flight packet, per PFC
// semantics (the current frame completes). With a pause timeout set,
// every Pause refreshes the quanta; a stream of PAUSE frames keeps the
// port stopped, silence lets it expire.
func (tx *Tx) Pause() {
	if tx.pauseTimeout > 0 {
		tx.pauseExpiry = tx.sim.Now() + tx.pauseTimeout
		if !tx.expiryArmed {
			tx.expiryArmed = true
			tx.sim.Schedule(tx.pauseEv, tx.pauseExpiry)
		}
	}
	if tx.paused {
		return
	}
	tx.paused = true
	tx.pausedSince = tx.sim.Now()
}

// Resume restarts a paused transmitter.
func (tx *Tx) Resume() {
	if !tx.paused {
		return
	}
	tx.paused = false
	tx.PausedTotal += tx.sim.Now() - tx.pausedSince
	if !tx.busy && !tx.blocked() {
		tx.startNext()
	}
}

// Paused reports the PFC state.
func (tx *Tx) Paused() bool { return tx.paused }

// PausedSince returns when the current pause stretch began (meaningful
// only while Paused() is true). The PFC watchdog uses it to measure the
// continuous pause duration of a port.
func (tx *Tx) PausedSince() sim.Time { return tx.pausedSince }

// SetPauseTimeout enables pause auto-expiry with the given quanta
// duration (0 restores latched semantics). Intended for host NICs in
// failure experiments: a NIC paused by a ToR that then dies would
// otherwise never transmit again.
func (tx *Tx) SetPauseTimeout(d sim.Time) {
	tx.pauseTimeout = d
	if d > 0 && tx.pauseEv == nil {
		tx.pauseEv = tx.sim.NewKindEvent(kindTxPauseExpiry, 0, tx)
	}
}

// pauseExpiryCheck runs at the earliest possible expiry instant; if the
// quanta were refreshed meanwhile it re-arms for the new expiry.
func (tx *Tx) pauseExpiryCheck() {
	tx.expiryArmed = false
	if !tx.paused || tx.pauseTimeout == 0 {
		return
	}
	now := tx.sim.Now()
	if now < tx.pauseExpiry {
		tx.expiryArmed = true
		tx.sim.Schedule(tx.pauseEv, tx.pauseExpiry)
		return
	}
	tx.PauseExpires++
	tx.Resume()
}

// InjectLoss makes this direction of the link drop packets with the
// given probability, modeling non-congestion losses (faulty optics,
// silent corruption) that TLT explicitly does not protect against (§5).
// A nil rng falls back to a fixed-seed source so the run stays
// deterministic instead of panicking on the first delivery.
func (tx *Tx) InjectLoss(rate float64, rng *sim.RNG) {
	if rng == nil && rate > 0 {
		rng = sim.NewRNG(0x10c5)
	}
	tx.wire.lossRate = rate
	tx.wire.lossRng = rng
	tx.wire.syncHasLoss()
}

// InjectGilbertElliott puts a two-state bursty loss channel on this
// direction of the link: per-packet transitions good→bad with pGoodBad
// and bad→good with pBadGood, dropping with probability lossGood /
// lossBad in the respective state. A nil rng falls back to a fixed-seed
// source. Passing lossBad <= 0 removes the channel.
func (tx *Tx) InjectGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64, rng *sim.RNG) {
	if lossBad <= 0 && lossGood <= 0 {
		tx.wire.ge = nil
		tx.wire.syncHasLoss()
		return
	}
	if rng == nil {
		rng = sim.NewRNG(0x6e11)
	}
	tx.wire.ge = &geLoss{
		pGoodBad: pGoodBad, pBadGood: pBadGood,
		lossGood: lossGood, lossBad: lossBad,
		rng: rng,
	}
	tx.wire.syncHasLoss()
}

// SetSrcDown flips the source half of the link state: the transmitter
// (serialization stops after the current frame) and the wire's hand-off
// check. It is owned by — and must only run on — the shard of the
// transmitting device; SetArrivalDown is the other half of an outage.
// Raising the link restarts transmission.
func (tx *Tx) SetSrcDown(down bool) {
	if down {
		tx.down = true
		tx.wire.down = true
		return
	}
	if !tx.down {
		return
	}
	tx.down = false
	tx.wire.down = false
	if !tx.busy && !tx.blocked() {
		tx.startNext()
	}
}

// SetArrivalDown flips the arrival half of the link state: whether
// packets still in flight are lost at their arrival instant. It is
// owned by — and must only run on — the shard of the receiving device.
func (tx *Tx) SetArrivalDown(down bool) {
	tx.wire.arrDown = down
}

// SetShards records the shard owning this transmitter and the shard its
// wire delivers to. Topology builders call it for every link of a
// sharded network (equal shards for intra-shard links).
func (tx *Tx) SetShards(src, dst int) {
	tx.shard = src
	tx.wire.srcShard = src
	tx.wire.dstShard = dst
}

// Shard returns the shard owning this transmitter.
func (tx *Tx) Shard() int { return tx.shard }

// ArrivalShard returns the shard owning this transmitter's arrival side.
func (tx *Tx) ArrivalShard() int { return tx.wire.dstShard }

// Freeze stalls the transmitter while leaving the wire intact: packets
// already propagating still arrive (a host NIC stall — PCIe hiccup,
// firmware wedge — rather than a dead cable).
func (tx *Tx) Freeze() { tx.frozen = true }

// Unfreeze releases a frozen transmitter and restarts transmission.
func (tx *Tx) Unfreeze() {
	if !tx.frozen {
		return
	}
	tx.frozen = false
	if !tx.busy && !tx.blocked() {
		tx.startNext()
	}
}

// LinkDown reports whether the link is currently dead.
func (tx *Tx) LinkDown() bool { return tx.down }

// InjectedDrops returns the number of randomly dropped packets
// (uniform loss and drop filters).
func (tx *Tx) InjectedDrops() int64 { return tx.wire.Dropped }

// DownDrops returns packets lost because the link was down, summing the
// hand-off (source) and in-flight (arrival) halves.
func (tx *Tx) DownDrops() int64 { return tx.wire.DownDropped + tx.wire.arrDownDropped }

// BurstyDrops returns packets lost to the Gilbert–Elliott channel.
func (tx *Tx) BurstyDrops() int64 { return tx.wire.GEDropped }

// DropWhen installs a deterministic drop predicate on this direction of
// the link (nil clears it). Packets for which fn returns true vanish, as
// if corrupted in flight. Scenario tests use it to reproduce the paper's
// Figure 3/4 loss sequences exactly.
func (tx *Tx) DropWhen(fn func(*packet.Packet) bool) {
	tx.wire.dropFilter = fn
	tx.wire.syncHasLoss()
}

// FinishPausedClock folds an open pause interval into PausedTotal at the
// end of a run so accounting is complete.
func (tx *Tx) FinishPausedClock() {
	if tx.paused {
		tx.PausedTotal += tx.sim.Now() - tx.pausedSince
		tx.pausedSince = tx.sim.Now()
	}
}

// DeliverControl bypasses the queue and serialization for link-level
// control frames (PFC PAUSE/RESUME are 64-byte frames with preemptive
// priority; their serialization time is negligible at 40 Gbps).
func (tx *Tx) DeliverControl(pkt *packet.Packet) {
	tx.wire.Deliver(pkt)
}

// Connect joins a's port ap and b's port bp with a full-duplex link of the
// given rate and one-way propagation delay, returning the two directional
// transmitters (a→b, b→a).
func Connect(s *sim.Sim, a Device, ap int, b Device, bp int, rateBps int64, delay sim.Time) (atx, btx *Tx) {
	atx = &Tx{sim: s, RateBps: rateBps, wire: newWire(s, delay, b, bp)}
	btx = &Tx{sim: s, RateBps: rateBps, wire: newWire(s, delay, a, ap)}
	atx.wire.tgt = s.RegisterTarget(atx.wire)
	btx.wire.tgt = s.RegisterTarget(btx.wire)
	atx.ev = s.NewKindEvent(kindTxSerDone, 0, atx)
	btx.ev = s.NewKindEvent(kindTxSerDone, 0, btx)
	a.attach(ap, atx)
	b.attach(bp, btx)
	return atx, btx
}

// ConnectSharded joins a's port ap (on shard ashard of g) and b's port
// bp (on shard bshard) with a full-duplex link whose arrivals cross the
// group's mailboxes. Each transmitter runs on its source shard's clock;
// wire ids wireBase (a→b) and wireBase+1 (b→a) key the canonical
// barrier injection order, so they must be unique across the network.
// The link's one-way delay must be at least the group's lookahead.
func ConnectSharded(g *sim.Group, a Device, ap, ashard int, b Device, bp, bshard int,
	rateBps int64, delay sim.Time, wireBase uint32) (atx, btx *Tx) {
	if delay < g.Lookahead() {
		panic("fabric: sharded link delay below group lookahead")
	}
	sa, sb := g.Shard(ashard), g.Shard(bshard)
	atx = &Tx{sim: sa, RateBps: rateBps, wire: newWire(sa, delay, b, bp)}
	btx = &Tx{sim: sb, RateBps: rateBps, wire: newWire(sb, delay, a, ap)}
	atx.wire.group, atx.wire.id = g, wireBase
	btx.wire.group, btx.wire.id = g, wireBase+1
	atx.SetShards(ashard, bshard)
	btx.SetShards(bshard, ashard)
	// A mailboxed wire's arrivals execute on the destination shard, so
	// the target id must come from that shard's simulator.
	atx.wire.tgt = sb.RegisterTarget(atx.wire)
	btx.wire.tgt = sa.RegisterTarget(btx.wire)
	atx.ev = sa.NewKindEvent(kindTxSerDone, 0, atx)
	btx.ev = sb.NewKindEvent(kindTxSerDone, 0, btx)
	a.attach(ap, atx)
	b.attach(bp, btx)
	return atx, btx
}
