package fabric

import (
	"fmt"
	"sort"
	"strings"

	"tlt/internal/packet"
)

// This file is the pluggable MMU boundary: the admission/drop decision
// (BufferPolicy) and the pause/resume/credit signaling (FlowControl)
// are strategy interfaces, with the paper's model — Choudhury–Hahne
// dynamic thresholds + TLT color-aware dropping, and PFC — as the
// built-in defaults. Competitor policies (BShare, the tiny-buffer
// regime, per-hop Backpressure Flow Control) live in
// internal/fabric/mmu and register themselves by name.
//
// Hot-path design: the switch calls the interfaces through pre-bound
// fields (sw.policy, sw.fc) with scalar arguments only, so the default
// per-packet path stays allocation-free — interface dispatch on a
// stored value boxes nothing, and every argument is an int, int64 or
// bool. BenchmarkSwitchForward gates this at 0 allocs/op in CI
// *through* the interface (the default policy is not special-cased out
// of the dispatch).

// BufferPolicy decides admission for the shared-buffer MMU. One policy
// instance serves one switch (policies may keep per-switch state); Bind
// is called exactly once, from NewSwitch, before any traffic.
//
// Admit and CheckDrop receive the decision-time state the switch
// derived for the arriving packet: qBytes is the target class queue's
// depth, free the remaining effective capacity (Capacity() − occupied),
// size the packet's wire size, green whether the packet is marked
// important, and (egress, tc) the target queue. Per-port and shared-
// pool state beyond that is available through the bound switch
// (QueueBytes, BufferUsed, Tx).
type BufferPolicy interface {
	// Name returns the policy's registered name (reports, BenchRecord).
	Name() string
	// Bind attaches the policy to the switch it governs.
	Bind(sw *Switch)
	// Capacity returns the effective shared-buffer admission capacity in
	// bytes (after any chaos shrink).
	Capacity() int64
	// Shrink caps the effective capacity to frac of the policy's
	// configured capacity — the chaos engine's MMU-reconfiguration
	// fault. frac outside (0, 1) restores the full capacity. The shrink
	// window is owned by the fault schedule, so Reset (switch reboot)
	// must NOT undo it; the schedule's restore event does.
	Shrink(frac float64)
	// Admit decides whether to admit the packet. ok=true admits; ok=false
	// drops with the returned reason (the switch maps reasons to
	// counters and recycles the packet).
	Admit(egress, tc int, qBytes, free, size int64, green bool) (reason DropReason, ok bool)
	// CheckDrop re-evaluates a recorded admission drop against the
	// policy's own view of the decision-time state, returning "" when
	// the drop was justified and a violation description otherwise. The
	// runtime auditor (internal/audit) calls this so its shadow
	// accounting validates against the installed policy rather than a
	// hardcoded Choudhury–Hahne model.
	CheckDrop(reason DropReason, tc int, qBytes, free, size int64, green bool) string
	// Reset clears per-run policy state when the switch reboots with a
	// factory-fresh MMU. It must not undo a chaos Shrink (see Shrink).
	Reset()
}

// FlowControl is the pause/resume/credit signaling strategy. OnEnqueue
// and OnDequeue observe every admitted packet (inPort is the packet's
// arrival port; for OnDequeue, the port it originally arrived on), and
// implementations emit PAUSE/RESUME frames upstream via the switch's
// EmitPause/EmitResume helpers. The PFC watchdog stays in the switch:
// it reacts to *received* pause frames, which every pause-based policy
// shares, and is inert when the local policy never emits any.
type FlowControl interface {
	// Name returns the policy's registered name.
	Name() string
	// Bind attaches the policy to the switch it governs.
	Bind(sw *Switch)
	// Lossless reports whether admission must not drop for threshold
	// reasons (flow control takes over congestion backpressure). The
	// default buffer policy disables its dynamic threshold when the
	// bound flow control is lossless, exactly as the hardcoded model
	// disabled it under PFC.
	Lossless() bool
	// OnEnqueue observes a packet admitted from inPort to (egress, tc).
	OnEnqueue(inPort, egress, tc int, size int64)
	// OnDequeue releases accounting for a departed packet that had
	// arrived on inPort. The watchdog's drop-and-unpause flush credits
	// through here too, one call per flushed packet.
	OnDequeue(inPort, egress, tc int, size int64)
	// Reset clears per-run state at switch reboot. Upstream peers the
	// policy had paused are NOT resumed — that state died with the
	// switch; their own pause timeout or watchdog must release them.
	Reset()
}

// Factories build one policy instance per switch from its config.
type (
	BufferPolicyFactory func(cfg SwitchConfig) BufferPolicy
	FlowControlFactory  func(cfg SwitchConfig) FlowControl
)

var (
	bufferPolicies = map[string]BufferPolicyFactory{}
	flowControls   = map[string]FlowControlFactory{}
)

// RegisterBufferPolicy makes a buffer policy selectable by
// SwitchConfig.MMU. Call from init(); not safe during runs.
func RegisterBufferPolicy(name string, f BufferPolicyFactory) {
	if _, dup := bufferPolicies[name]; dup {
		panic("fabric: duplicate buffer policy " + name)
	}
	bufferPolicies[name] = f
}

// RegisterFlowControl makes a flow-control policy selectable by
// SwitchConfig.FC. Call from init(); not safe during runs.
func RegisterFlowControl(name string, f FlowControlFactory) {
	if _, dup := flowControls[name]; dup {
		panic("fabric: duplicate flow control " + name)
	}
	flowControls[name] = f
}

func registered[T any](m map[string]T) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// newBufferPolicy resolves cfg.MMU ("" and "ch" are the built-in
// Choudhury–Hahne + color-threshold default).
func newBufferPolicy(cfg SwitchConfig) BufferPolicy {
	switch cfg.MMU {
	case "", "ch":
		return NewCHPolicy("ch", cfg, cfg.BufferBytes)
	}
	f, ok := bufferPolicies[cfg.MMU]
	if !ok {
		panic(fmt.Sprintf("fabric: unknown buffer policy %q (registered: ch, %s)",
			cfg.MMU, registered(bufferPolicies)))
	}
	return f(cfg)
}

// newFlowControl resolves cfg.FC. The empty name keeps the legacy
// meaning of the PFC flag: PFC when cfg.PFC is set, nothing otherwise.
// "none" disables flow control even when cfg.PFC is set.
func newFlowControl(cfg SwitchConfig) FlowControl {
	switch cfg.FC {
	case "":
		if !cfg.PFC {
			return nil
		}
		return newPFCControl(cfg)
	case "none":
		return nil
	case "pfc":
		return newPFCControl(cfg)
	}
	f, ok := flowControls[cfg.FC]
	if !ok {
		panic(fmt.Sprintf("fabric: unknown flow control %q (registered: pfc, none, %s)",
			cfg.FC, registered(flowControls)))
	}
	return f(cfg)
}

// chPolicy is the built-in buffer policy: Choudhury–Hahne dynamic
// thresholds plus TLT color-aware dropping, extracted verbatim from the
// pre-refactor switch admission path. NewCHPolicy exposes it so
// derived regimes (the tiny-buffer policy) can reuse the admission
// logic with a different capacity.
type chPolicy struct {
	name     string
	alpha    float64
	k        int64 // color threshold (0 disables)
	colorAll bool  // color dropping on every class, not just class 0
	lossless bool  // bound flow control is lossless: no dynamic drops

	capacity int64 // configured admission capacity
	eff      int64 // effective capacity (chaos shrink)
}

// NewCHPolicy builds the default Choudhury–Hahne + color-threshold
// policy with an explicit admission capacity (the tiny-buffer regime
// passes a fraction of the physical buffer).
func NewCHPolicy(name string, cfg SwitchConfig, capacity int64) BufferPolicy {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1
	}
	return &chPolicy{
		name:     name,
		alpha:    alpha,
		k:        cfg.ColorThreshold,
		colorAll: cfg.ColorAllClasses,
		capacity: capacity,
		eff:      capacity,
	}
}

func (p *chPolicy) Name() string { return p.name }

func (p *chPolicy) Bind(sw *Switch) { p.lossless = sw.lossless }

func (p *chPolicy) Capacity() int64 { return p.eff }

func (p *chPolicy) Shrink(frac float64) {
	if frac <= 0 || frac >= 1 {
		p.eff = p.capacity
		return
	}
	p.eff = int64(frac * float64(p.capacity))
}

func (p *chPolicy) Admit(egress, tc int, qBytes, free, size int64, green bool) (DropReason, bool) {
	switch {
	case free < size:
		return DropReasonBufferFull, false
	case (tc == 0 || p.colorAll) && p.k > 0 && !green && qBytes >= p.k:
		// Color-aware dropping: the red class may not grow the queue
		// past K. Green packets pass and use the headroom.
		return DropReasonColor, false
	case !p.lossless && float64(qBytes)+float64(size) > p.alpha*float64(free):
		// Dynamic shared-buffer threshold (lossy operation only; a
		// lossless class relies on flow control instead of dropping).
		return DropReasonDynamic, false
	}
	return 0, true
}

func (p *chPolicy) CheckDrop(reason DropReason, tc int, qBytes, free, size int64, green bool) string {
	switch reason {
	case DropReasonBufferFull:
		if free >= size {
			return "buffer-full drop with headroom"
		}
	case DropReasonColor:
		// The paper's protection guarantee: color-aware dropping may
		// only ever discard red (unimportant) packets.
		if green {
			return "green packet dropped by color threshold"
		}
		if tc != 0 && !p.colorAll {
			return "color drop on a class the threshold does not govern"
		}
		if p.k <= 0 || qBytes < p.k {
			return "color drop below threshold K"
		}
	case DropReasonDynamic:
		if p.lossless {
			return "dynamic-threshold drop in lossless (PFC) mode"
		}
		if float64(qBytes)+float64(size) <= p.alpha*float64(free) {
			return "dynamic-threshold drop with headroom"
		}
	case DropReasonPolicy:
		return "policy drop from a policy that never issues them"
	}
	return ""
}

// Reset is a no-op: the default policy keeps no per-run state, and the
// effective capacity belongs to the chaos schedule (see Shrink).
func (p *chPolicy) Reset() {}

// pfcControl is priority flow control, extracted verbatim from the
// pre-refactor switch: per-ingress-port byte accounting with XOFF/XON
// thresholds, pausing the upstream transmitter of any ingress port
// whose buffered bytes exceed XOFF.
type pfcControl struct {
	sw        *Switch
	xoff, xon int64
	ingress   []int64 // bytes buffered that arrived via each port
	sentXOff  []bool
}

func newPFCControl(cfg SwitchConfig) FlowControl {
	xoff, xon := cfg.XOff, cfg.XOn
	if xoff <= 0 {
		// Direct fabric users that select "pfc" without sizing
		// thresholds: static per-ingress XOFF so all ports can hit XOFF
		// with headroom left, XON one MTU-ish step below.
		ports := int64(cfg.Ports)
		if ports < 1 {
			ports = 1
		}
		xoff = cfg.BufferBytes / (2 * ports)
		xon = xoff - xoff/8
	}
	return &pfcControl{xoff: xoff, xon: xon}
}

func (f *pfcControl) Name() string { return "pfc" }

func (f *pfcControl) Bind(sw *Switch) {
	f.sw = sw
	f.ingress = make([]int64, len(sw.ports))
	f.sentXOff = make([]bool, len(sw.ports))
}

func (f *pfcControl) Lossless() bool { return true }

func (f *pfcControl) OnEnqueue(inPort, egress, tc int, size int64) {
	f.ingress[inPort] += size
	if !f.sentXOff[inPort] && f.ingress[inPort] > f.xoff {
		f.sentXOff[inPort] = true
		f.sw.EmitPause(inPort)
	}
}

func (f *pfcControl) OnDequeue(inPort, egress, tc int, size int64) {
	f.ingress[inPort] -= size
	if f.sentXOff[inPort] && f.ingress[inPort] <= f.xon {
		f.sentXOff[inPort] = false
		f.sw.EmitResume(inPort)
	}
}

func (f *pfcControl) Reset() {
	for i := range f.ingress {
		f.ingress[i] = 0
		f.sentXOff[i] = false
	}
}

// EmitPause sends a PAUSE frame to the upstream neighbor on port,
// updating counters and the audit hook. FlowControl implementations
// emit all pause signaling through this and EmitResume so accounting
// and pooling stay uniform across policies.
func (sw *Switch) EmitPause(port int) {
	sw.Ctr.PauseFrames++
	if sw.Audit != nil {
		sw.Audit.OnPFC(sw, port, true)
	}
	pf := sw.pool.Get()
	pf.Type = packet.Pause
	pf.Src = sw.id
	sw.ports[port].tx.DeliverControl(pf)
}

// EmitResume sends a RESUME frame to the upstream neighbor on port.
func (sw *Switch) EmitResume(port int) {
	sw.Ctr.ResumeFrames++
	if sw.Audit != nil {
		sw.Audit.OnPFC(sw, port, false)
	}
	pf := sw.pool.Get()
	pf.Type = packet.Resume
	pf.Src = sw.id
	sw.ports[port].tx.DeliverControl(pf)
}
