// Package collective implements the Broadcast algorithms the paper
// evaluates (§4): unicast Ring and Binary Tree with 8-chunk pipelined
// forwarding (as in NCCL), the bandwidth-optimal Steiner multicast, Orca's
// controller-installed multicast with host-assisted last-hop fan-out, PEEL
// with static power-of-two prefixes, and PEEL with programmable-core
// refinement. All schemes run over the internal/netsim fabric and report
// collective completion time (CCT): collective initiation until the
// message has reached every GPU, including the final NVLink stage.
package collective

import (
	"fmt"

	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/dcqcn"
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/routing"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// Scheme names a broadcast algorithm.
type Scheme string

// The paper's six schemes first, then ablations and explorations.
const (
	Ring      Scheme = "ring"
	BinTree   Scheme = "tree"
	Optimal   Scheme = "optimal"
	Orca      Scheme = "orca"
	PEEL      Scheme = "peel"
	PEELCores Scheme = "peel+cores"
	// PEELNoGuard is PEEL reacting to every CNP (no sender-side guard
	// timer) — the §4 congestion-control ablation baseline.
	PEELNoGuard Scheme = "peel-noguard"
	// OrcaInstant is Orca with a zero-delay controller: Fig. 4's
	// "without controller overhead" curve (same data path, no setup).
	OrcaInstant Scheme = "orca-instant"
	// PEELToRFilter is PEEL with membership-filtering ToRs: over-covered
	// traffic is dropped at the ToR instead of reaching non-member hosts
	// (the "ToRs that filter" deployment tier of §3.4).
	PEELToRFilter Scheme = "peel-torfilter"
	// PEELCoresFiltered combines programmable cores with filtering ToRs.
	PEELCoresFiltered Scheme = "peel+cores-torfilter"
	// DblBinTree is NCCL's double binary tree: two complementary trees
	// each carrying half the chunks (Fig. 1's "double binary trees").
	DblBinTree Scheme = "dtree"
	// MultiTree1/2/4 stripe the message's chunks across up to 1, 2 or 4
	// equal-cost Steiner tree variants, which may share links — the
	// multicast-vs-multipath exploration of §2.3's open question
	// (MultiTree1 is the single-tree control with identical chunking).
	MultiTree1 Scheme = "multitree-1"
	MultiTree2 Scheme = "multitree-2"
	MultiTree4 Scheme = "multitree-4"
	// StripedPEEL stripes the message's chunks round-robin across up to
	// four pairwise link-disjoint peeled trees (steiner.DisjointTrees), so
	// a single hot or dead link stalls at most one stripe. StripedPEEL2
	// caps the set at two trees. Both striping families repair per stripe.
	StripedPEEL  Scheme = "striped-peel"
	StripedPEEL2 Scheme = "striped-peel-2"
)

// AllSchemes lists every scheme in the paper's legend order.
var AllSchemes = []Scheme{Ring, BinTree, Optimal, Orca, PEEL, PEELCores}

// Runner starts collectives on a shared simulated fabric.
type Runner struct {
	Net     *netsim.Network
	Cluster *workload.Cluster
	// Planner is required for PEEL/PEELCores on fat-trees; nil elsewhere
	// (PEEL then uses the layer-peeling tree directly).
	Planner *core.Planner
	// Ctrl models the SDN controller for Orca and PEELCores.
	Ctrl *controller.Model
	// Chunks is the pipelining depth for Ring/Tree/Orca relays (the
	// paper divides each message into eight chunks).
	Chunks int

	// NVLinkLatency is the fixed intra-host stage latency added once the
	// NIC has the full message.
	NVLinkLatency sim.Time

	// Watchdog enables mid-flight failure recovery: a receiver-progress
	// check at this interval detects stalled collectives and re-plans
	// delivery on the degraded fabric (see recovery.go). 0 — the default —
	// disables recovery entirely; failure-free runs are then untouched.
	Watchdog sim.Time
	// MaxRepairs bounds repair attempts per collective before the pending
	// receivers are abandoned; 0 means the default budget.
	MaxRepairs int
	// PlannedDark, when set, reports whether an announced fabric
	// reconfiguration dark window is currently open (fabric.Fabric's
	// DarkOpen). The watchdog skips stall accounting while it returns
	// true: deferred frames drain when the window closes, so a planned
	// quiet interval must not burn repair attempts or count as a failure
	// stall. Unannounced reconfiguration leaves this nil and lands as an
	// ordinary failure.
	PlannedDark func() bool

	// insts tracks live instances so PrepareEpoch (recovery.go) can pre-peel
	// trees crossing an announced epoch's removed circuits. Mutated only
	// from the simulation loop; no locking.
	insts map[*instance]struct{}

	flowKey uint64
}

// NewRunner wires a runner with the paper's defaults.
func NewRunner(net *netsim.Network, cl *workload.Cluster, pl *core.Planner, ctrl *controller.Model) *Runner {
	return &Runner{
		Net:           net,
		Cluster:       cl,
		Planner:       pl,
		Ctrl:          ctrl,
		Chunks:        8,
		NVLinkLatency: 2 * sim.Microsecond,
	}
}

// nvlinkStage returns the intra-host broadcast time over NVLink/NVSwitch
// once the message reaches a host NIC.
func (r *Runner) nvlinkStage(bytes int64) sim.Time {
	return r.NVLinkLatency + sim.Time(float64(bytes*8)/r.Net.Cfg.NVLinkBps*1e12)
}

// nextKey yields a unique ECMP flow key.
func (r *Runner) nextKey() uint64 {
	r.flowKey++
	return r.flowKey*0x9e3779b97f4a7c15 + 0x1234567
}

// Start launches collective c under scheme s at the current simulated
// time. done fires once every member host (and, after the NVLink stage,
// every GPU) holds the full message, receiving the CCT.
func (r *Runner) Start(c *workload.Collective, s Scheme, done func(cct sim.Time)) error {
	return r.StartReport(c, s, func(rep Report) { done(rep.CCT) })
}

// StartReport is Start with the extended completion record: done receives
// the CCT plus the recovery statistics (stalls, repairs, downtime) the
// watchdog collected. With Runner.Watchdog disabled the recovery stats are
// all zero.
func (r *Runner) StartReport(c *workload.Collective, s Scheme, done func(Report)) error {
	if len(c.Hosts) < 2 {
		// Single-host collective: NVLink only.
		start := r.Net.Engine.Now()
		r.Net.Engine.After(r.nvlinkStage(c.Bytes), func() {
			done(Report{CCT: r.Net.Engine.Now() - start})
		})
		return nil
	}
	inst := &instance{r: r, c: c, startedAt: r.Net.Engine.Now(), reportDone: done}
	if err := inst.startScheme(s); err != nil {
		return err
	}
	r.register(inst)
	if r.Watchdog > 0 {
		inst.armWatchdog()
	}
	return nil
}

// startScheme dispatches to the per-scheme launcher.
func (in *instance) startScheme(s Scheme) error {
	switch s {
	case Ring:
		return in.startRing()
	case BinTree:
		return in.startBinTree()
	case DblBinTree:
		return in.startDblBinTree()
	case Optimal:
		return in.startOptimal()
	case Orca:
		return in.startOrca(true)
	case OrcaInstant:
		return in.startOrca(false)
	case PEEL:
		return in.startPEEL(false, true, core.PlanOptions{})
	case PEELCores:
		return in.startPEEL(true, true, core.PlanOptions{})
	case PEELNoGuard:
		return in.startPEEL(false, false, core.PlanOptions{})
	case PEELToRFilter:
		return in.startPEEL(false, true, core.PlanOptions{ToRFilter: true})
	case PEELCoresFiltered:
		return in.startPEEL(true, true, core.PlanOptions{ToRFilter: true})
	case MultiTree1:
		return in.startMultiTree(1)
	case MultiTree2:
		return in.startMultiTree(2)
	case MultiTree4:
		return in.startMultiTree(4)
	case StripedPEEL:
		return in.startStriped(4)
	case StripedPEEL2:
		return in.startStriped(2)
	}
	return fmt.Errorf("collective: unknown scheme %q", s)
}

// instance tracks one in-flight collective.
type instance struct {
	r          *Runner
	c          *workload.Collective
	startedAt  sim.Time
	reportDone func(Report)

	pendingHosts int
	hostDone     map[topology.NodeID]bool
	finished     bool

	orcaGot  map[topology.NodeID]int // per-peer chunk counts (Orca relays)
	startErr error                   // deferred-start failure (see failStart)

	// stripes are the collective's delivery trees and the unit of
	// recovery (see recovery.go): one for single-tree and unicast schemes,
	// one per tree for the striping schemes.
	stripes []*stripe
	// Chunk bookkeeping of the striping schemes (see striped.go), nil for
	// the others: the chunk sizes, got[r][c] for receiver r holding chunk
	// c, and need[r] counting the chunks r still lacks.
	sizes []int64
	got   map[topology.NodeID][]bool
	need  map[topology.NodeID]int

	// Failure-recovery state. All zero when the watchdog is disabled.
	recovery       RecoveryStats
	repairAttempts int
	setupPending   bool // controller install outstanding: not a stall
}

// initCompletion arms completion tracking over the receiver hosts, with
// one stripe to track the collective's flows.
func (in *instance) initCompletion() {
	in.hostDone = make(map[topology.NodeID]bool, len(in.c.Receivers()))
	in.pendingHosts = len(in.c.Receivers())
	in.stripes = []*stripe{{last: -1}} // first tick always records progress
}

// hostComplete marks a receiver host as holding the full message; when the
// last completes, the NVLink stage runs and the CCT is reported.
func (in *instance) hostComplete(h topology.NodeID) {
	if in.hostDone[h] || in.finished {
		return
	}
	in.hostDone[h] = true
	in.pendingHosts--
	if in.pendingHosts > 0 {
		return
	}
	in.finished = true
	in.r.unregister(in)
	if s := invariant.Active(); s != nil {
		// Completion means every receiver was delivered to exactly once: the
		// de-dup guard above makes double completion impossible, so a zero
		// pending count with a receiver missing from hostDone (or a nonzero
		// pending count here) is corrupted completion tracking.
		missing := 0
		for _, m := range in.c.Receivers() {
			if !in.hostDone[m] {
				missing++
			}
		}
		s.Checkf(invariant.CollectiveDelivery, in.pendingHosts == 0 && missing == 0,
			"collective %d finished with pending=%d, %d of %d receivers undelivered",
			in.c.ID, in.pendingHosts, missing, len(in.c.Receivers()))
	}
	// A repair whose resumed traffic finished the collective before the
	// next watchdog tick still completes the detect→install→resume
	// breakdown here.
	eng := in.r.Net.Engine
	for _, st := range in.stripes {
		in.noteRepairResumed(st, eng.Now())
	}
	eng.After(in.r.nvlinkStage(in.c.Bytes), func() {
		rep := Report{CCT: eng.Now() - in.startedAt, Recovery: in.recovery}
		if in.got != nil {
			rep.Stripes = len(in.stripes)
			for _, st := range in.stripes {
				rep.StripeRepairs = append(rep.StripeRepairs, st.repairs)
			}
		}
		if ts := telemetry.Active(); ts != nil {
			ts.Counter("collective.completed").Inc()
			ts.Histogram("collective.cct_ps", telemetry.Log2Layout()).Observe(int64(rep.CCT))
		}
		in.reportDone(rep)
	})
}

// chunkSizes splits the message into the pipelining chunks.
func (in *instance) chunkSizes() []int64 {
	n := in.r.Chunks
	if n < 1 {
		n = 1
	}
	if int64(n) > in.c.Bytes {
		n = int(in.c.Bytes)
	}
	base := in.c.Bytes / int64(n)
	sizes := make([]int64, n)
	var used int64
	for i := 0; i < n-1; i++ {
		sizes[i] = base
		used += base
	}
	sizes[n-1] = in.c.Bytes - used
	return sizes
}

// unicastFlow builds a paced flow between two hosts over an ECMP path.
func (in *instance) unicastFlow(src, dst topology.NodeID, params dcqcn.Params) (*netsim.Flow, error) {
	path := routing.ECMPPath(in.r.Net.G, src, dst, in.r.nextKey())
	if path == nil {
		return nil, fmt.Errorf("collective: no path %d->%d", src, dst)
	}
	return in.r.Net.NewUnicastFlow(path, params)
}
