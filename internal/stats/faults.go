package stats

// FaultCounters aggregates injected-fault activity and auditor findings
// for one run, so chaos experiments can report how much abuse the fabric
// absorbed alongside the usual FCT metrics.
type FaultCounters struct {
	LinkFlaps     int // link down events executed
	NICFreezes    int // host NIC freeze events executed
	BufferShrinks int // MMU capacity-shrink windows executed
	SwitchFails   int // switch kill events executed
	PortFails     int // single-direction port wedge events executed
	PauseStorms   int // PFC pause-storm windows executed

	DownDrops   int64 // packets lost on a dead link
	BurstyDrops int64 // packets lost to Gilbert–Elliott channels
	RandomDrops int64 // packets lost to uniform loss / drop filters
	StormFrames int64 // PFC PAUSE frames injected by pause storms

	// AuditViolations counts invariant violations observed by a
	// non-strict auditor (a strict auditor panics on the first).
	AuditViolations int64
	// PFCDeadlockCycles and PFCStormSuspects are auditor findings: pause
	// wait-for-graph cycles and ports whose continuous pause crossed the
	// storm threshold.
	PFCDeadlockCycles int64
	PFCStormSuspects  int64
}

// Add accumulates other into c.
func (c *FaultCounters) Add(o *FaultCounters) {
	c.LinkFlaps += o.LinkFlaps
	c.NICFreezes += o.NICFreezes
	c.BufferShrinks += o.BufferShrinks
	c.SwitchFails += o.SwitchFails
	c.PortFails += o.PortFails
	c.PauseStorms += o.PauseStorms
	c.DownDrops += o.DownDrops
	c.BurstyDrops += o.BurstyDrops
	c.RandomDrops += o.RandomDrops
	c.StormFrames += o.StormFrames
	c.AuditViolations += o.AuditViolations
	c.PFCDeadlockCycles += o.PFCDeadlockCycles
	c.PFCStormSuspects += o.PFCStormSuspects
}

// TotalInjected returns all packet losses caused by fault injection.
func (c *FaultCounters) TotalInjected() int64 {
	return c.DownDrops + c.BurstyDrops + c.RandomDrops
}
