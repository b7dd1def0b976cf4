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
	rec := recorder.NewFlowRecord(flow)
	c := &Conn{NewSender(s, src, flow, cfg, rec), NewReceiver(s, dst, flow, cfg, rec)}
	transport.StartQP(c.Sender, c.Receiver, recorder, onDone)
	return c
}
