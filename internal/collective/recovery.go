package collective

import (
	"fmt"

	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/routing"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// Mid-flight recovery.
//
// Multicast senders get no link-layer feedback when a tree link dies: the
// fabric silently drops every frame crossing it, and without intervention
// the collective stalls forever. Every collective therefore runs as one or
// more stripes — one delivery tree each, the unit of recovery: single-tree
// and unicast schemes have exactly one stripe owning every tracked flow,
// striped-peel* and multitree-* have one per tree. One engine repairs any
// stripe, fed by two triggers:
//
//   - stall: a receiver-progress watchdog samples each stripe's delivered
//     bytes at a fixed interval; two consecutive quiet intervals declare
//     that stripe stalled (one interval of hysteresis absorbs pacing
//     jitter). The repair budget is checked, a BFS keeps the pending
//     receivers the source can still reach, and the controller install
//     (§3.1) is charged unless the patch is a pure prune. A stripe whose
//     tree died keeps stalling, so the same trigger re-repairs it; the
//     other stripes keep delivering untouched.
//   - announced epoch (Runner.PrepareEpoch): a reconfiguration that will
//     remove circuits under a single-tree stripe re-peels it on a plan
//     view of the post-epoch graph ahead of the boundary, so delivery
//     never stalls. Striped runs are left to the stall trigger.
//
// Both end in install: patch the stripe's tree (core.RepairTree, falling
// back to a full re-peel), check it, close the stripe's flows and start
// one new flow carrying what the pending receivers still lack — the byte
// tail from the minimum progress for a single-tree stripe, the missing
// chunks for a striped one. With no tree, each receiver gets a unicast
// detour. After MaxRepairs attempts, receivers still cut off are
// abandoned: the collective completes with RecoveryStats.Abandoned > 0
// instead of wedging the simulation.
//
// The watchdog is opt-in (Runner.Watchdog = 0 disables it); with it off,
// or with no failures injected, the data path is untouched and results are
// byte-identical to a failure-free run.

// defaultMaxRepairs bounds repair attempts when Runner.MaxRepairs is 0.
const defaultMaxRepairs = 8

// RecoveryStats reports what mid-flight recovery did for one collective.
type RecoveryStats struct {
	// Stalls counts watchdog stall declarations.
	Stalls int
	// Repairs counts repair trees successfully installed.
	Repairs int
	// UnicastFallbacks counts receivers recovered over unicast detours
	// after repair-tree construction failed.
	UnicastFallbacks int
	// Abandoned counts receivers given up on after MaxRepairs attempts;
	// nonzero means the collective did NOT deliver to everyone.
	Abandoned int
	// PrePeels counts planned re-peels installed ahead of announced epoch
	// boundaries (Runner.PrepareEpoch); these never declared a stall.
	PrePeels int
	// FirstStallAt is when the first stall was declared (collective-
	// relative); zero if none was.
	FirstStallAt sim.Time
	// Downtime accumulates time spent with no receiver progress, from the
	// last observed progress to its resumption (quantized to the watchdog
	// interval).
	Downtime sim.Time
}

// Report is the extended completion record StartReport delivers.
type Report struct {
	CCT      sim.Time
	Recovery RecoveryStats
	// Stripes is the achieved tree count for the striping schemes
	// (StripedPEEL*, MultiTree*): the fabric or the dedup probe may yield
	// fewer trees than the scheme's nominal k. Zero for single-tree
	// schemes.
	Stripes int
	// StripeRepairs counts repairs (trees and unicast detours) per stripe
	// index for the striping schemes, one entry per stripe; a single failed
	// link must leave every entry but the dead stripe's at zero. Nil for
	// single-tree schemes.
	StripeRepairs []int
}

// stripe is one delivery tree of a collective and the unit of recovery.
type stripe struct {
	idx int
	// tree is the last installed tree — the graft base for patch repair.
	// nil for multi-tree stages (PEEL's static prefix packets) and unicast
	// overlays, where repair always re-peels.
	tree *steiner.Tree
	// flows lists the stripe's flows, original first, repairs appended:
	// progress and the delivered-bytes invariant sum over all of them.
	flows []watched
	// chunks lists the chunk IDs a striped run sends on this stripe;
	// remaining counts its undelivered (receiver, chunk) pairs.
	chunks    []int
	remaining int
	repairs   int // repair trees and unicast detours installed

	// Watchdog state.
	last         int64
	quiet        int
	stalled      bool
	stalledSince sim.Time
	installing   bool // repair or pre-peel install outstanding: not a stall

	// Repair latency breakdown (telemetry): when the current stall was
	// declared and when its repair went in. awaitResume marks the window
	// between install and the first observed progress.
	detectAt    sim.Time
	installAt   sim.Time
	awaitResume bool
}

// watched is one flow with the receivers whose progress it carries.
type watched struct {
	f         *netsim.Flow
	receivers []topology.NodeID
}

// track adds a flow to the stripe.
func (st *stripe) track(f *netsim.Flow, receivers []topology.NodeID) {
	st.flows = append(st.flows, watched{f: f, receivers: receivers})
}

// track adds a flow to a single-stripe collective.
func (in *instance) track(f *netsim.Flow, receivers []topology.NodeID) {
	in.stripes[0].track(f, receivers)
}

// progress sums delivered bytes across the stripe's flows and receivers.
// Monotone: closed flows freeze their contribution, repair flows add
// theirs on top.
func (st *stripe) progress() int64 {
	var total int64
	for _, w := range st.flows {
		for _, r := range w.receivers {
			total += w.f.ReceivedBytes(r)
		}
	}
	return total
}

// drained reports whether every receiver holds every chunk of a striped
// run's stripe; single-tree stripes end with the collective instead.
func (in *instance) drained(st *stripe) bool {
	return in.got != nil && st.remaining == 0
}

// maxRepairs returns the per-collective repair budget.
func (in *instance) maxRepairs() int {
	if in.r.MaxRepairs > 0 {
		return in.r.MaxRepairs
	}
	return defaultMaxRepairs
}

// armWatchdog starts the progress watchdog for this collective.
func (in *instance) armWatchdog() {
	in.r.Net.Engine.After(in.r.Watchdog, in.watchdogTick)
}

// watchdogTick is the periodic receiver-progress check of every stripe.
func (in *instance) watchdogTick() {
	if in.finished {
		return // collective done; let the engine drain
	}
	in.r.Net.Engine.After(in.r.Watchdog, in.watchdogTick)

	if in.r.PlannedDark != nil && in.r.PlannedDark() {
		// Announced reconfiguration window: frames offered to retraining
		// circuits are deferred, not lost, so the absence of progress is
		// expected and carries no failure signal. Reset the hysteresis so
		// a genuine stall straddling the window still needs two quiet
		// ticks after it closes.
		for _, st := range in.stripes {
			st.quiet = 0
		}
		if ts := telemetry.Active(); ts != nil {
			ts.Counter("collective.dark_ticks").Inc()
		}
		return
	}
	now := in.r.Net.Engine.Now()
	for _, st := range in.stripes {
		in.watch(st, now)
	}
}

// watch samples one stripe: progress (or a drained stripe) ends its stall,
// a quiet interval while no install is outstanding counts toward one, and
// a stalled stripe is repaired on every quiet tick until it moves again.
func (in *instance) watch(st *stripe, now sim.Time) {
	if in.drained(st) {
		in.endStall(st, now)
		return
	}
	if snap := st.progress(); snap > st.last {
		st.last = snap
		in.endStall(st, now)
		in.noteRepairResumed(st, now)
		st.quiet = 0
		return
	}
	if in.setupPending || st.installing {
		return // a controller install is in flight; not a data-path stall
	}
	st.quiet++
	if !st.stalled {
		if st.quiet < 2 {
			return // one quiet interval can be pacing/controller jitter
		}
		in.declareStall(st, now)
	}
	in.repair(st)
}

// endStall books the downtime of a stall that just ended.
func (in *instance) endStall(st *stripe, now sim.Time) {
	if st.stalled {
		in.recovery.Downtime += now - st.stalledSince
		st.stalled = false
	}
}

// declareStall records a stall verdict on one stripe.
func (in *instance) declareStall(st *stripe, now sim.Time) {
	st.stalled = true
	// Progress was last seen about quiet intervals ago.
	st.stalledSince = now - sim.Time(st.quiet)*in.r.Watchdog
	if st.stalledSince < 0 {
		st.stalledSince = 0
	}
	in.recovery.Stalls++
	if in.recovery.FirstStallAt == 0 {
		in.recovery.FirstStallAt = now - in.startedAt
	}
	st.detectAt = now
	if ts := telemetry.Active(); ts != nil {
		ts.Counter("collective.stalls").Inc()
		if in.got != nil {
			ts.Counter("collective.stripe.stalls").Inc()
		}
		// Detection latency: last observed progress to declaration
		// (watchdog interval plus hysteresis).
		ts.Histogram("collective.repair.detect_ps", telemetry.Log2Layout()).
			Observe(int64(now - st.stalledSince))
		ts.Recorder().Record(now, telemetry.KindRepairDetect,
			int64(in.c.ID), int64(st.idx), int64(now-st.stalledSince))
	}
}

// pending lists the receivers not yet complete that still lack one of the
// given chunks; nil chunks (a single-tree stripe) asks only for completion.
func (in *instance) pending(chunks []int) []topology.NodeID {
	var out []topology.NodeID
	for _, m := range in.c.Receivers() {
		if !in.hostDone[m] && (chunks == nil || in.lacks(chunks, m)) {
			out = append(out, m)
		}
	}
	return out
}

// lacks reports whether any of the receivers is missing one of the chunks.
func (in *instance) lacks(chunks []int, receivers ...topology.NodeID) bool {
	for _, c := range chunks {
		for _, m := range receivers {
			if !in.got[m][c] {
				return true
			}
		}
	}
	return false
}

// repair handles one stalled quiet tick of a stripe: re-plan its delivery
// on the degraded graph, or abandon once the repair budget is spent.
func (in *instance) repair(st *stripe) {
	if in.repairAttempts >= in.maxRepairs() {
		in.abandonPending()
		return
	}
	in.repairAttempts++
	pending := in.pending(st.chunks)
	if len(pending) == 0 {
		return // everything delivered; completion is NVLink-stage bound
	}
	d := routing.BorrowBFS(in.r.Net.G, in.c.Source())
	reachable := pending[:0:0]
	for _, m := range pending {
		if d.Reachable(m) {
			reachable = append(reachable, m)
		}
	}
	d.Release()
	if len(reachable) == 0 {
		// Fully cut off: nothing to repair onto. Later ticks retry (a heal
		// may reconnect them) until the budget runs out.
		return
	}
	// The repair rules cost a controller round trip (§3.1) — unless the
	// patch adds no forwarding rules: when the repair tree is the old tree
	// minus the dead branch, there is nothing to install. Probe the patch
	// at detect time and cut over immediately in that case; no sim time
	// passes, so install recomputes the identical patch.
	in.charge(st, in.r.Ctrl == nil || in.prunes(st, reachable),
		func() { in.install(st, reachable, nil) })
}

// prunes reports whether patching the stripe toward pending adds no
// forwarding rules.
func (in *instance) prunes(st *stripe, pending []topology.NodeID) bool {
	tree, stats, err := in.patch(st, pending)
	return err == nil && tree != nil && !stats.FellBack && stats.GraftEdges == 0
}

// charge runs install once the controller has pushed the stripe's new
// rules, or at once when free. The stripe is not watched for stalls
// meanwhile.
func (in *instance) charge(st *stripe, free bool, install func()) {
	st.installing = true
	run := func() {
		st.installing = false
		install()
	}
	if free {
		run()
		return
	}
	in.r.Ctrl.Install(in.r.Net.Engine, run)
}

// patch grafts pending receivers into the stripe's own tree. Returns
// (nil, stats, nil) when the stripe has no tree to patch; otherwise
// core.RepairTree's result, which internally degrades to a full re-peel.
func (in *instance) patch(st *stripe, pending []topology.NodeID) (*steiner.Tree, steiner.RepairStats, error) {
	if st.tree == nil {
		return nil, steiner.RepairStats{}, nil
	}
	// A stall is declared only once receivers on live branches have
	// drained, so the pending set here is typically exactly the orphaned
	// subtree. The orphan-fraction guard — sized for whole-group
	// recomputes where most receivers survive — would then refuse every
	// watchdog patch; lift it and let the cost-ratio and Theorem 2.5
	// budget gates decide instead.
	pol := steiner.DefaultRepairPolicy()
	pol.MaxOrphanFrac = 1
	return core.RepairTree(in.r.Net.G, st.tree, -1, pending, pol)
}

// install cuts one stripe over to a new tree once its rules are in: the
// one place a stripe's flows are closed and a replacement started. planned
// is the tree an announced epoch pre-peeled; nil plans a repair now on the
// degraded fabric, patch first.
func (in *instance) install(st *stripe, targets []topology.NodeID, planned *steiner.Tree) {
	if in.finished {
		return
	}
	// Receivers may have completed (late in-flight frames) or been lost
	// again while the controller worked; re-filter against current state.
	pending := targets[:0:0]
	for _, m := range targets {
		if !in.hostDone[m] {
			pending = append(pending, m)
		}
	}
	if len(pending) == 0 {
		return
	}
	tree, patched := planned, false
	attempted := planned == nil && st.tree != nil
	if planned == nil {
		var stats steiner.RepairStats
		var err error
		tree, stats, err = in.patch(st, pending)
		patched = err == nil && tree != nil && !stats.FellBack
		if tree == nil && err == nil {
			tree, err = core.BuildTree(in.r.Net.G, in.c.Source(), pending)
		}
		if err != nil {
			tree = nil
		} else if s := invariant.Active(); s != nil && !patched {
			// Every re-peel must still be a valid tree within the Theorem
			// 2.5 cost budget on the degraded fabric (accepted patches are
			// checked by core.RepairTree itself).
			steiner.ReportTreeChecks(s, in.r.Net.G, tree, pending)
		}
	}
	tail := in.tail(st, pending)
	params := in.r.Net.Cfg.DCQCN.WithGuard()
	var rf *netsim.Flow
	if tree != nil {
		rf, _ = in.r.Net.NewMulticastFlow(tree, pending, params)
	}
	for _, w := range st.flows {
		w.f.Close()
	}
	if rf == nil {
		in.detour(st, pending, tail)
		return
	}
	st.tree = tree
	if planned != nil {
		in.recovery.PrePeels++
		if ts := telemetry.Active(); ts != nil {
			ts.Counter("collective.pre_peels").Inc()
		}
	} else {
		in.recovery.Repairs++
		st.repairs++
		in.noteRepairInstalled(st)
		if ts := telemetry.Active(); ts != nil {
			ts.Counter("collective.repairs").Inc()
			if in.got != nil {
				ts.Counter("collective.stripe.repairs").Inc()
			}
			if patched {
				ts.Counter("collective.repair.patched").Inc()
				// patch_ps keeps its single-tree meaning; a striped
				// stripe's patch timing is in install_ps.
				if in.got == nil {
					ts.Histogram("collective.repair.patch_ps", telemetry.Log2Layout()).
						Observe(int64(in.r.Net.Engine.Now() - st.detectAt))
				}
			} else if attempted {
				ts.Counter("collective.repair.full_fallback").Inc()
			}
		}
	}
	st.track(rf, pending)
	rf.OnChunk(in.deliver)
	in.resend(st, rf, pending, tail)
}

// detour unicasts around the failure, per receiver, when no tree could be
// built (a receiver dropped off between BFS and build, or the builder hit
// degraded-fabric corners). Receivers without even a unicast path stay
// pending for the next attempt.
func (in *instance) detour(st *stripe, pending []topology.NodeID, tail int64) {
	params := in.r.Net.Cfg.DCQCN.WithGuard()
	launched := 0
	for _, m := range pending {
		f, err := in.unicastFlow(in.c.Source(), m, params)
		if err != nil {
			continue
		}
		in.recovery.UnicastFallbacks++
		st.repairs++
		launched++
		if ts := telemetry.Active(); ts != nil {
			ts.Counter("collective.unicast_fallbacks").Inc()
			ts.Recorder().Record(in.r.Net.Engine.Now(), telemetry.KindUnicastFallback,
				int64(in.c.ID), int64(m), 0)
		}
		to := []topology.NodeID{m}
		st.track(f, to)
		f.OnChunk(in.deliver)
		in.resend(st, f, to, tail)
	}
	if launched > 0 {
		in.noteRepairInstalled(st)
	}
}

// tail is what a single-tree stripe resends: the message from the minimum
// progress across the pending receivers. Receivers further along simply
// re-receive part of it — over-delivery costs bandwidth, never correctness.
func (in *instance) tail(st *stripe, pending []topology.NodeID) int64 {
	min := in.c.Bytes
	for _, m := range pending {
		// A receiver's progress is its best flow: schemes track it on
		// different flows (the tree, a relay hop, a previous repair).
		var best int64
		for _, w := range st.flows {
			if got := w.f.ReceivedBytes(m); got > best {
				best = got
			}
		}
		if best < min {
			min = best
		}
	}
	if min >= in.c.Bytes {
		return in.c.Bytes
	}
	return in.c.Bytes - min
}

// resend queues on f what the receivers still lack: the stripe's missing
// chunks in a striped run, the tail otherwise.
func (in *instance) resend(st *stripe, f *netsim.Flow, receivers []topology.NodeID, tail int64) {
	if in.got == nil {
		f.Send(0, tail)
		return
	}
	for _, c := range st.chunks {
		if in.lacks([]int{c}, receivers...) {
			f.Send(c, in.sizes[c])
		}
	}
}

// noteRepairInstalled stamps the install phase of the stripe's current
// repair: repair traffic (tree or unicast detours) is flowing as of now.
// The install histogram covers replan plus the controller round trip —
// detection to first repair byte offered.
func (in *instance) noteRepairInstalled(st *stripe) {
	now := in.r.Net.Engine.Now()
	st.installAt = now
	st.awaitResume = true
	if ts := telemetry.Active(); ts != nil {
		ts.Histogram("collective.repair.install_ps", telemetry.Log2Layout()).
			Observe(int64(now - st.detectAt))
		ts.Recorder().Record(now, telemetry.KindRepairInstall,
			int64(in.c.ID), int64(st.idx), int64(now-st.detectAt))
	}
}

// noteRepairResumed closes the breakdown: the stripe's progress was
// observed (or the collective finished) after a repair install.
func (in *instance) noteRepairResumed(st *stripe, now sim.Time) {
	if !st.awaitResume {
		return
	}
	st.awaitResume = false
	if ts := telemetry.Active(); ts != nil {
		ts.Histogram("collective.repair.resume_ps", telemetry.Log2Layout()).
			Observe(int64(now - st.installAt))
		ts.Recorder().Record(now, telemetry.KindRepairComplete,
			int64(in.c.ID), int64(st.idx), int64(now-st.installAt))
	}
}

// abandonPending gives up on the still-pending receivers after the repair
// budget is exhausted: they are marked complete so the collective (and the
// simulation) terminates, and RecoveryStats.Abandoned records the delivery
// failure for the caller.
func (in *instance) abandonPending() {
	pending := in.pending(nil)
	if len(pending) == 0 {
		return
	}
	// Stop the surviving flows (and their repair scans) so the engine can
	// drain; nothing will ever reach the abandoned receivers anyway.
	for _, st := range in.stripes {
		for _, w := range st.flows {
			w.f.Close()
		}
	}
	if ts := telemetry.Active(); ts != nil {
		ts.Counter("collective.abandoned").Add(int64(len(pending)))
		ts.Recorder().Record(in.r.Net.Engine.Now(), telemetry.KindAbandon,
			int64(in.c.ID), 0, int64(len(pending)))
		ts.NoteAbort(fmt.Sprintf("collective %d abandoned %d receivers after %d repair attempts",
			in.c.ID, len(pending), in.repairAttempts))
	}
	for _, m := range pending {
		in.recovery.Abandoned++
		in.hostComplete(m)
	}
}

// PrepareEpoch eagerly re-peels every live single-tree collective whose
// tree crosses one of the circuits an announced epoch will remove. view
// must be the post-epoch plan graph (current graph with the removed
// circuits failed); trees are planned on it but installed on the live
// fabric, so they are valid on both sides of the boundary. Returns the
// number of collectives pre-peeled.
func (r *Runner) PrepareEpoch(view *topology.Graph, removed []topology.LinkID) int {
	if len(removed) == 0 || len(r.insts) == 0 {
		return 0
	}
	rm := make(map[topology.LinkID]struct{}, len(removed))
	for _, id := range removed {
		rm[id] = struct{}{}
	}
	n := 0
	for in := range r.insts {
		if in.prePeel(view, rm) {
			n++
		}
	}
	return n
}

// register tracks a live instance for PrepareEpoch; completion drops it.
func (r *Runner) register(in *instance) {
	if r.insts == nil {
		r.insts = make(map[*instance]struct{})
	}
	r.insts[in] = struct{}{}
}

func (r *Runner) unregister(in *instance) { delete(r.insts, in) }

// prePeel is the announced-epoch trigger: if the collective's single tree
// crosses a to-be-removed circuit, re-peel it on the plan view and install
// it through the controller like a repair. Failure to build a replacement
// (receivers already unreachable on the plan view) is not an error: the
// stall trigger picks the collective up when the epoch commits.
func (in *instance) prePeel(view *topology.Graph, rm map[topology.LinkID]struct{}) bool {
	st := in.stripes[0]
	if in.finished || in.got != nil || st.tree == nil || in.r.Watchdog <= 0 {
		return false
	}
	// Tolerant crossing check: Tree.Links panics on dead edges, but a tree
	// broken by an earlier epoch (repair still pending) is exactly a tree
	// this announcement should replace — treat a missing live link as a
	// crossing rather than an error.
	g := in.r.Net.G
	crosses := false
	for _, m := range st.tree.Members {
		p := st.tree.Parent[m]
		if p == topology.None {
			continue
		}
		id := g.LinkBetween(p, m)
		if _, hit := rm[id]; hit || id < 0 {
			crosses = true
			break
		}
	}
	if !crosses {
		return false
	}
	pending := in.pending(nil)
	if len(pending) == 0 {
		return false
	}
	tree, err := core.BuildTree(view, in.c.Source(), pending)
	if err != nil || tree == nil {
		return false
	}
	if s := invariant.Active(); s != nil {
		// The pre-peeled tree must hold the Theorem 2.5 budget on the plan
		// view — the graph it will actually live on after the boundary.
		steiner.ReportTreeChecks(s, view, tree, pending)
	}
	in.charge(st, in.r.Ctrl == nil, func() { in.install(st, pending, tree) })
	return true
}
