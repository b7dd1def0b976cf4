package tcp

import (
	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Conn bundles the two endpoints of a connection.
type Conn struct {
	Sender   *Sender
	Receiver *Receiver
}

// NewConn creates and registers a sender on src and a receiver on dst for
// flow, without writing data. Use for persistent application connections.
func NewConn(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder) *Conn {
	c := &Conn{Sender: new(Sender), Receiver: new(Receiver)}
	c.open(src, dst, flow, cfg, rec, recorder)
	return c
}

// open initialises both endpoints for flow and registers them.
func (c Conn) open(src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder) {
	c.Sender.Reset(src, flow, cfg, rec, recorder, nil)
	c.Receiver.Reset(dst, flow, cfg)
	src.Register(flow.ID, c.Sender)
	dst.Register(flow.ID, c.Receiver)
}

// StartFlow creates a connection carrying exactly flow.Size bytes,
// beginning at flow.Start. The flow record's completion is stamped when
// the receiver has delivered the full payload (the paper measures FCT at
// the data sink). onDone, if non-nil, fires at that moment.
func StartFlow(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) *Conn {
	c := &Conn{Sender: new(Sender), Receiver: new(Receiver)}
	StartFlowOn(*c, src, dst, flow, cfg, recorder, onDone)
	return c
}

// StartFlowOn is StartFlow on endpoints the caller supplies: new ones, or
// ones whose previous flow has finished (Sender.Reset panics otherwise).
// Nothing of what they did before shows in the flow they carry now.
func StartFlowOn(c Conn, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) {
	rec := recorder.NewFlowRecord(flow)
	c.open(src, dst, flow, cfg, rec, recorder)
	// Completion runs on the receiver's shard, abort on the sender's;
	// each closure touches only its own side of the record and stamps
	// its own shard's clock. A flow can finalize from both sides (abort
	// racing a completion in flight), so onDone callers that must fire
	// once deduplicate themselves.
	c.Receiver.OnDeliver = func(total int64) {
		if total >= flow.Size && !rec.Done {
			recorder.FlowDone(rec, dst.Sim().Now())
			if onDone != nil {
				onDone(rec)
			}
		}
	}
	// A sender only gives up under a retry cap; without one the abort
	// wiring would be a dead closure per flow.
	if cfg.RTO.MaxRetries > 0 {
		c.Sender.OnAbort = func() {
			if rec.Aborted {
				return
			}
			recorder.FlowAborted(rec, src.Sim().Now())
			if onDone != nil {
				onDone(rec)
			}
		}
	}
	src.Sim().PostKind(flow.Start, kindFlowStart, 0, c.Sender)
}
