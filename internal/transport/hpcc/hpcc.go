// Package hpcc implements HPCC (Li et al., SIGCOMM'19) as evaluated by
// the paper: a window-based RoCE transport driven by per-ACK in-band
// network telemetry (INT), with SACK loss recovery ("HPCC+SACK") and an
// optional TLT window-based extension.
package hpcc

import (
	"fmt"

	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/packet"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Config parametrizes an HPCC sender.
type Config struct {
	MSS         int
	LineRateBps int64
	BaseRTT     sim.Time // T in the HPCC control law
	Eta         float64  // target utilization (0.95)
	MaxStage    int      // additive-increase stages per MIMD reset (5)
	WAIBytes    float64  // additive increase per update
	RTO         transport.RTOConfig
	TLT         core.Config
}

// DefaultConfig returns HPCC's recommended settings scaled to the 40 Gbps
// RoCE fabric (1 µs links).
func DefaultConfig(baseRTT sim.Time) Config {
	winit := float64(40e9/8) * baseRTT.Seconds()
	return Config{
		MSS:         transport.MSS,
		LineRateBps: 40e9,
		BaseRTT:     baseRTT,
		Eta:         0.95,
		MaxStage:    5,
		WAIBytes:    winit * 0.05 / 10,
		RTO:         transport.RTOConfig{Fixed: 4 * sim.Millisecond},
	}
}

// Sender is an HPCC flow sender. Reliability — the scoreboard, the RTO,
// ACK intake, the packet fill, TLT marking state — is the embedded
// transport.QPSender; what is here is the INT-driven window law and the
// burst loop that fills the window.
type Sender struct {
	transport.QPSender
	cfg Config

	winit    float64
	w, wc    float64
	u        float64
	incStage int
	lastSeq  int64 // lastUpdateSeq: next Wc assignment boundary
	lastINT  []packet.INTHop
}

// Receiver acknowledges every data packet, echoing the INT telemetry the
// packet accumulated so the sender can run the HPCC control law: the
// responder core as it stands, window-based TLT echo included.
type Receiver struct{ transport.Receiver }

// Reset initialises the receiver for flow on host; see
// transport.Receiver.Reset.
func (r *Receiver) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	r.Receiver.Reset(host, flow, transport.Packets(flow.Size, cfg.MSS), rec, cfg.TLT, true, true)
}

// Reset initialises the sender for flow on host; see
// transport.QPSender.Reset, which panics on a sender that is mid-flow. Of
// the window law only the emptied backing of the last INT stack carries
// over.
func (s *Sender) Reset(host *fabric.Host, flow *transport.Flow, cfg Config, rec *stats.FlowRecord) {
	winit := float64(cfg.LineRateBps/8) * cfg.BaseRTT.Seconds()
	cfg.TLT.Flow = flow.ID
	s.QPSender.Reset(s, host, flow, cfg.MSS, &s.cfg.RTO, rec)
	*s = Sender{QPSender: s.QPSender, cfg: cfg, winit: winit, w: winit, wc: winit, lastINT: s.lastINT[:0]}
	// Always present: a disabled config yields a machine that never marks.
	s.Win = *core.NewWindowSender(cfg.TLT)
}

// Clear zeroes a finished sender down to what Reset carries over; see
// transport.QPSender.Clear.
func (s *Sender) Clear() {
	s.QPSender.Clear()
	*s = Sender{QPSender: s.QPSender, lastINT: s.lastINT[:0]}
}

// StartFlow creates an HPCC flow from src to dst; see transport.Start.
func StartFlow(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*Sender, *Receiver) {
	snd, rcv := new(Sender), new(Receiver)
	transport.Start(snd, rcv, src, dst, flow, cfg, recorder, onDone)
	return snd, rcv
}

// Start begins transmission.
func (s *Sender) Start() {
	s.output()
	s.ArmRTO()
}

// Describe adds the window law's state to a stall snapshot.
func (s *Sender) Describe(fs *transport.FlowStatus) {
	fs.Transport = "hpcc"
	fs.State = fmt.Sprintf("%s(w=%.0fB)", fs.State, s.w)
}

// Handle implements fabric.PacketHandler.
func (s *Sender) Handle(pkt *packet.Packet) {
	if s.Done() || pkt.Type != packet.Ack {
		return
	}
	// The window law first: of the scoreboard it reads only Nxt, which
	// ACK intake never moves.
	if pkt.NumINT() > 0 {
		s.react(pkt)
	}
	if open, _ := s.OnAck(pkt); !open {
		return
	}
	s.output()
	if s.Win.Armed() {
		s.ImportantClock()
	}
}

func (s *Sender) inflightBytes() float64 {
	return float64(s.Board.InFlight()) * float64(s.cfg.MSS)
}

// react runs HPCC's per-ACK control law (Algorithm 1 of the HPCC paper).
func (s *Sender) react(pkt *packet.Packet) {
	updateWc := pkt.Ack > s.lastSeq
	u := s.measureInflight(pkt.INTHops())
	s.computeWind(u, updateWc)
	if updateWc {
		s.lastSeq = s.Board.Nxt
	}
}

func (s *Sender) measureInflight(hops []packet.INTHop) float64 {
	tSec := s.cfg.BaseRTT.Seconds()
	u := 0.0
	tau := tSec
	if len(s.lastINT) == len(hops) {
		for i, h := range hops {
			prev := s.lastINT[i]
			dt := (h.Timestamp - prev.Timestamp).Seconds()
			if dt <= 0 {
				continue
			}
			txRate := float64(h.TxBytes-prev.TxBytes) * 8 / dt
			qlen := min(h.QueueBytes, prev.QueueBytes)
			b := float64(h.RateBps)
			uPrime := float64(qlen)*8/(b*tSec) + txRate/b
			if uPrime > u {
				u = uPrime
				tau = dt
			}
		}
	}
	// First ACK (or hop-count change): no rate delta is computable; the
	// EWMA simply keeps its prior value via tau=T and u=0 above.
	tau = min(tau, tSec)
	s.u = s.u*(1-tau/tSec) + u*(tau/tSec)
	s.lastINT = append(s.lastINT[:0], hops...)
	return s.u
}

func (s *Sender) computeWind(u float64, updateWc bool) {
	if u >= s.cfg.Eta || s.incStage >= s.cfg.MaxStage {
		s.w = s.wc/(u/s.cfg.Eta) + s.cfg.WAIBytes
		if updateWc {
			s.incStage = 0
			s.wc = s.w
		}
	} else {
		s.w = s.wc + s.cfg.WAIBytes
		if updateWc {
			s.incStage++
			s.wc = s.w
		}
	}
	s.w = min(max(s.w, float64(s.cfg.MSS)), s.winit)
}

// output fills the window: retransmissions first, then fresh data.
func (s *Sender) output() {
	for s.inflightBytes() < s.w {
		psn := s.Board.NextRetx()
		isRetx := psn >= 0
		if !isRetx {
			if s.Board.Nxt >= s.Board.N {
				return
			}
			psn = s.Board.Nxt
		}
		// The burst goes on if the window has room for one more packet and
		// there is one: a pending retransmission or, behind fresh data,
		// more fresh data.
		more := s.inflightBytes()+float64(s.cfg.MSS) < s.w && s.MoreAfter(psn, isRetx, !isRetx)
		s.Transmit(psn, isRetx, s.Win.TakeMark(!more, s.S.Now()))
	}
}

// Timeout implements the core's timeout: HPCC's static RTO.
func (s *Sender) Timeout() (sim.Time, bool) { return s.cfg.RTO.Fixed, false }

// Recover implements the core's RTO hook: everything outstanding is lost
// and goes out again as far as the window allows.
func (s *Sender) Recover() {
	s.Board.MarkAllLost()
	s.Win.Reset()
	s.output()
	s.ArmRTO()
}

// Quiesce has nothing to stop: HPCC keeps no timer beyond the core's RTO.
func (s *Sender) Quiesce() {}
