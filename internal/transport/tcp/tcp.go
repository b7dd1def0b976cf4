// Package tcp implements the TCP-family transports of the paper's
// evaluation: TCP NewReno with SACK (duplicate-ACK threshold 1, as §5
// prescribes for single-path datacenters), DCTCP, Tail Loss Probe, and
// the TLT extension (Algorithm 1) on top of either.
//
// The model is a byte stream segmented at MSS boundaries. Loss detection
// combines three signals, mirroring the paper:
//
//   - SACK + dupthresh=1: any byte below the highest selectively-acked
//     byte that is not itself acked is lost.
//   - TLT important echoes: when the echo of an important packet returns,
//     every packet transmitted strictly before that important packet and
//     still unacknowledged is lost (guaranteed fast loss detection, §5.1).
//   - RTO as the last resort.
package tcp

import (
	"tlt/internal/core"
	"tlt/internal/fabric"
	"tlt/internal/sim"
	"tlt/internal/stats"
	"tlt/internal/transport"
)

// Config parametrizes a TCP connection.
type Config struct {
	MSS            int
	InitWindowSegs int
	MaxCwndBytes   float64
	RTO            transport.RTOConfig

	// DCTCP enables ECN-fraction congestion control; implies ECT.
	DCTCP  bool
	DctcpG float64

	// ECN sets ECT on data packets (needed for DCTCP; plain TCP in the
	// paper's baseline is loss-based, no ECN).
	ECN bool

	// TLP enables tail loss probes (baseline comparison in Fig. 5).
	TLP       bool
	TLPMinPTO sim.Time

	// TLT enables the paper's mechanism.
	TLT core.Config

	// TrafficClass selects the egress queue on multi-queue switch ports
	// (incremental deployment, §5.3). Class 0 is the TLT class.
	TrafficClass uint8

	// MaxSackBlocks bounds SACK option size per ACK, like real TCP.
	MaxSackBlocks int
}

// DefaultConfig returns the paper's simulation defaults (§7.1): MSS 1 kB,
// IW 10, SACK with dupthresh 1, RTOmin 4 ms.
func DefaultConfig() Config {
	return Config{
		MSS:            transport.MSS,
		InitWindowSegs: 10,
		MaxCwndBytes:   32e6,
		RTO:            transport.DefaultRTO(),
		DctcpG:         1.0 / 16.0,
		TLPMinPTO:      10 * sim.Microsecond,
		MaxSackBlocks:  4,
	}
}

// DCTCPConfig returns DefaultConfig with DCTCP enabled.
func DCTCPConfig() Config {
	c := DefaultConfig()
	c.DCTCP = true
	c.ECN = true
	return c
}

// NewConn creates and opens a sender on src and a receiver on dst for
// flow, without writing data: a persistent application connection. An
// abort is booked on recorder; with flow.Size 0 the stream has no end, so
// it never completes.
func NewConn(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	rec *stats.FlowRecord, recorder *stats.Recorder) (*Sender, *Receiver) {
	snd, rcv := new(Sender), new(Receiver)
	snd.Reset(src, flow, cfg, rec)
	rcv.Reset(dst, flow, cfg, rec)
	transport.Open(snd, rcv, recorder, nil)
	return snd, rcv
}

// StartFlow creates a connection carrying exactly flow.Size bytes,
// beginning at flow.Start; see transport.Start. The flow record's
// completion is stamped when the receiver has delivered the full payload
// (the paper measures FCT at the data sink), an abort by the sender;
// onDone, if non-nil, fires at either moment.
func StartFlow(s *sim.Sim, src, dst *fabric.Host, flow *transport.Flow, cfg Config,
	recorder *stats.Recorder, onDone func(*stats.FlowRecord)) (*Sender, *Receiver) {
	snd, rcv := new(Sender), new(Receiver)
	transport.Start(snd, rcv, src, dst, flow, cfg, recorder, onDone)
	return snd, rcv
}
