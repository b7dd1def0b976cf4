// Package app provides a message layer over persistent transport
// connections, emulating the paper's application benchmarks (§7.3): an
// HTTP client, web servers, and a Redis-like in-memory cache exchanging
// requests and 32 kB SET operations over pre-established connections.
package app

import (
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
	"tlt/internal/transport/tcp"
)

// dirState tracks message boundaries for one direction of a channel.
type dirState struct {
	sender    *tcp.Sender
	boundary  []int64  // absolute stream offsets ending each message
	callbacks []func() // fired when the matching boundary is delivered
	fired     int      // messages delivered
	written   int64    // bytes written so far
}

// Channel is a bidirectional persistent connection between two hosts,
// built from two unidirectional transport flows. Messages are length-
// delimited spans of the byte stream; the receiver-side callback fires
// when a full message has been delivered in order.
type Channel struct {
	s  *sim.Sim
	ab *dirState // hostA -> hostB
	ba *dirState // hostB -> hostA
}

// NewChannel establishes a channel between a and b using two flows with
// IDs id and id+1. Flow records are created on rec (they never complete —
// persistent connections carry many messages; application latency is
// measured by the caller via callbacks).
func NewChannel(s *sim.Sim, a, b *fabric.Host, id packet.FlowID, cfg tcp.Config, recorder *stats.Recorder) *Channel {
	mk := func(src, dst *fabric.Host, fid packet.FlowID) (*dirState, *tcp.Receiver) {
		flow := &transport.Flow{ID: fid, Src: src.ID(), Dst: dst.ID(), Size: 0}
		rec := recorder.NewFlowRecord(flow)
		snd, rcv := tcp.NewConn(s, src, dst, flow, cfg, rec, recorder)
		return &dirState{sender: snd}, rcv
	}
	ch := &Channel{s: s}
	var rcvAB, rcvBA *tcp.Receiver
	ch.ab, rcvAB = mk(a, b, id)
	ch.ba, rcvBA = mk(b, a, id+1)
	rcvAB.OnDeliver = func(total int64) { ch.ab.deliver(total) }
	rcvBA.OnDeliver = func(total int64) { ch.ba.deliver(total) }
	return ch
}

func (d *dirState) deliver(total int64) {
	for d.fired < len(d.boundary) && total >= d.boundary[d.fired] {
		cb := d.callbacks[d.fired]
		d.fired++
		if cb != nil {
			cb()
		}
	}
}

func (d *dirState) send(n int64, onDelivered func()) {
	d.written += n
	d.boundary = append(d.boundary, d.written)
	d.callbacks = append(d.callbacks, onDelivered)
	d.sender.Write(n)
}

// SendAB writes an n-byte message from host A to host B; onDelivered
// fires when B has the complete message.
func (ch *Channel) SendAB(n int64, onDelivered func()) { ch.ab.send(n, onDelivered) }

// SendBA writes an n-byte message from host B to host A.
func (ch *Channel) SendBA(n int64, onDelivered func()) { ch.ba.send(n, onDelivered) }
