// Package netsim is a discrete-event, frame-level datacenter network
// simulator: the substrate substituting for the paper's OMNeT++ setup
// (§4). It models store-and-forward switches with per-port egress queues,
// shared switch buffers, ECN marking, PFC pause/resume, DCQCN-paced
// senders, and native multicast replication, over fabrics from
// internal/topology.
//
// Granularity: traffic moves in frames of Config.FrameBytes. Experiments
// use frames coarser than the 1500 B MTU to bound event counts; this
// rescales absolute times identically for every scheme and preserves the
// ratios and crossovers the paper's figures report (see DESIGN.md).
package netsim

import (
	"fmt"
	"math/rand"

	"peel/internal/dcqcn"
	"peel/internal/sim"
)

// Config holds the fabric-wide simulation parameters. The defaults follow
// the paper's experimental setup (§4): 100 Gb/s links, NVLink at 900 GB/s,
// 12 MB switch buffers, ECN marking between 5 kB and 200 kB at 1%
// probability, PFC stop/resume at 11% free buffer with 5-MTU hysteresis.
type Config struct {
	LinkBps       float64  // per-direction link bandwidth
	NVLinkBps     float64  // intra-host GPU fabric bandwidth (bits/s)
	PropDelay     sim.Time // per-link propagation delay
	SwitchLatency sim.Time // per-hop forwarding latency
	FrameBytes    int64    // simulation frame (coarse MTU)
	BufferBytes   int64    // shared buffer per switch
	ECNKminBytes  int64    // ECN marking lower threshold (per egress queue)
	ECNKmaxBytes  int64    // ECN marking upper threshold
	ECNPmax       float64  // marking probability at Kmax
	PFCEnabled    bool
	PFCFreeFrac   float64  // pause when free buffer fraction drops below this
	NPInterval    sim.Time // receiver-side CNP coalescing interval
	CNPDelay      sim.Time // CNP propagation delay back to the sender
	// HostQueueFrames bounds the host NIC egress queue: a flow defers
	// injection while its uplink already holds this many frames, so
	// concurrent QPs arbitrate the NIC at line rate instead of dumping
	// their messages into an unbounded queue.
	HostQueueFrames int64
	// LossRate drops each delivered frame with this probability,
	// exercising the selective-repeat recovery the paper inherits from
	// RDMA (§1 fn.1). 0 disables loss.
	LossRate float64
	// RepairRTO is the sender's repair-scan interval under loss: once
	// injection finishes, missing frames are retransmitted each RTO until
	// every receiver is whole.
	RepairRTO sim.Time
	DCQCN     dcqcn.Params
	// Seed is the single reproducibility root for a simulation: the ECN
	// coin flips, loss draws, controller jitter, and chaos schedules all
	// derive their RNGs from it via RNG(salt).
	Seed      int64
	MaxEvents uint64 // safety budget for Engine.Run (0 = unlimited)
}

// DefaultConfig returns the paper's §4 parameters with a 4 KiB simulation
// frame (tests); experiments override FrameBytes per message size.
func DefaultConfig() Config {
	return Config{
		LinkBps:         100e9,
		NVLinkBps:       900e9 * 8, // 900 GB/s
		PropDelay:       600 * sim.Nanosecond,
		SwitchLatency:   300 * sim.Nanosecond,
		FrameBytes:      4096,
		BufferBytes:     12 << 20,
		ECNKminBytes:    5 << 10,
		ECNKmaxBytes:    200 << 10,
		ECNPmax:         0.01,
		PFCEnabled:      true,
		PFCFreeFrac:     0.11,
		NPInterval:      50 * sim.Microsecond,
		CNPDelay:        4 * sim.Microsecond,
		HostQueueFrames: 8,
		LossRate:        0,
		RepairRTO:       200 * sim.Microsecond,
		DCQCN:           dcqcn.DefaultParams(),
		Seed:            1,
		MaxEvents:       0,
	}
}

// pfcPauseThreshold returns the occupancy above which a switch asserts
// pause toward its upstream neighbors.
func (c Config) pfcPauseThreshold() int64 {
	return int64(float64(c.BufferBytes) * (1 - c.PFCFreeFrac))
}

// pfcResumeThreshold applies the 5-MTU hysteresis below the pause point.
func (c Config) pfcResumeThreshold() int64 {
	return c.pfcPauseThreshold() - 5*c.FrameBytes
}

// txTime returns the serialization time of n bytes at the link rate.
func (c Config) txTime(n int64) sim.Time {
	return sim.Time(float64(n*8) / c.LinkBps * 1e12)
}

// RNG derives a deterministic per-component substream from the single
// simulation seed: distinct salts give independent streams, and a whole run
// (loss, ECN, controller jitter, chaos schedule) reproduces from Cfg.Seed
// alone. Callers should pick a fixed salt per component.
func (c Config) RNG(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + salt))
}

// Reserved RNG salts for the standard components, so independent layers do
// not collide on a substream.
const (
	SaltECN        = 7     // netsim's ECN/loss coin flips
	SaltController = 7919  // controller setup-latency jitter
	SaltChaos      = 31337 // chaos failure schedules
	SaltWorkload   = 104729
)

// Validate rejects configurations that would silently misbehave: negative
// or >1 probabilities, zero frame or buffer sizes, negative delays, inverted
// ECN thresholds.
// netsim.New calls it and panics on error (a bad config is a construction
// bug, not a runtime condition); callers building configs from user input
// should call it directly first.
func (c Config) Validate() error {
	switch {
	case c.LinkBps <= 0:
		return fmt.Errorf("netsim: LinkBps %v must be positive", c.LinkBps)
	case c.NVLinkBps <= 0:
		return fmt.Errorf("netsim: NVLinkBps %v must be positive", c.NVLinkBps)
	case c.FrameBytes <= 0:
		return fmt.Errorf("netsim: FrameBytes %d must be positive", c.FrameBytes)
	case c.BufferBytes <= 0:
		return fmt.Errorf("netsim: BufferBytes %d must be positive", c.BufferBytes)
	case c.PropDelay < 0:
		return fmt.Errorf("netsim: PropDelay %v must be non-negative", c.PropDelay)
	case c.SwitchLatency < 0:
		return fmt.Errorf("netsim: SwitchLatency %v must be non-negative", c.SwitchLatency)
	case c.CNPDelay < 0:
		return fmt.Errorf("netsim: CNPDelay %v must be non-negative", c.CNPDelay)
	case c.RepairRTO < 0:
		return fmt.Errorf("netsim: RepairRTO %v must be non-negative", c.RepairRTO)
	case c.LossRate < 0 || c.LossRate > 1:
		return fmt.Errorf("netsim: LossRate %v outside [0,1]", c.LossRate)
	case c.LossRate > 0 && c.RepairRTO <= 0:
		return fmt.Errorf("netsim: LossRate %v needs a positive RepairRTO", c.LossRate)
	case c.ECNKminBytes < 0 || c.ECNKmaxBytes <= c.ECNKminBytes:
		return fmt.Errorf("netsim: ECN thresholds Kmin=%d Kmax=%d must satisfy 0 ≤ Kmin < Kmax", c.ECNKminBytes, c.ECNKmaxBytes)
	case c.ECNPmax < 0 || c.ECNPmax > 1:
		return fmt.Errorf("netsim: ECNPmax %v outside [0,1]", c.ECNPmax)
	case c.PFCEnabled && (c.PFCFreeFrac <= 0 || c.PFCFreeFrac >= 1):
		return fmt.Errorf("netsim: PFCFreeFrac %v outside (0,1)", c.PFCFreeFrac)
	case c.HostQueueFrames <= 0:
		return fmt.Errorf("netsim: HostQueueFrames %d must be positive", c.HostQueueFrames)
	}
	return nil
}
