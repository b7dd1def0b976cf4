package dcqcn

import (
	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Conn bundles the two ends of a queue pair.
type Conn struct {
	Sender   *Sender
	Receiver *Receiver
}

// StartFlow creates a queue pair carrying flow.Size bytes from src to dst
// starting at flow.Start; see transport.StartQP.
func StartFlow(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) *Conn {
	c := &Conn{new(Sender), new(Receiver)}
	StartFlowOn(*c, src, dst, flow, cfg, recorder, onDone)
	return c
}

// StartFlowOn is StartFlow on endpoints the caller supplies: new ones, or
// ones whose previous flow has finished (Sender.Reset panics otherwise).
// Nothing of what they did before shows in the flow they carry now.
func StartFlowOn(c Conn, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	rec := recorder.NewFlowRecord(flow)
	c.Sender.Reset(src, flow, cfg, rec)
	c.Receiver.Reset(dst, flow, cfg, rec)
	transport.StartQP(c.Sender, c.Receiver, recorder, onDone)
}
