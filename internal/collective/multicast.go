package collective

import (
	"peel/internal/core"
	"peel/internal/netsim"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// startOptimal runs the bandwidth-optimal baseline: a single multicast
// flow over the minimum Steiner tree (super-node construction on
// failure-free fabrics, layer-peeling under failures), with per-group
// replication rules assumed free — the idealized lower bound of Fig. 5.
func (in *instance) startOptimal() error {
	tree, err := core.BuildTree(in.r.Net.G, in.c.Source(), in.c.Receivers())
	if err != nil {
		return err
	}
	return in.startTreeFlow(tree, in.c.Receivers(), false)
}

// startTreeFlow launches one multicast flow over tree toward the given
// member receivers; guard selects PEEL's sender-side guard timer.
func (in *instance) startTreeFlow(tree *steiner.Tree, receivers []topology.NodeID, guard bool) error {
	in.initCompletion()
	params := in.r.Net.Cfg.DCQCN
	if guard {
		params = params.WithGuard()
	}
	f, err := in.r.Net.NewMulticastFlow(tree, receivers, params)
	if err != nil {
		return err
	}
	in.track(f, receivers)
	in.stripes[0].tree = tree
	f.OnChunk(in.deliver)
	f.Send(0, in.c.Bytes)
	return nil
}

// startPEEL runs PEEL's static-prefix stage: one multicast flow per
// ⟨pod, prefix⟩ packet (each carrying the full message up its own copy of
// the funnel and down its prefix block, over-covered devices included),
// with the sender-side guard timer replacing DCQCN's receiver-side rate
// limiter (§4).
//
// With refine=true the two-stage refinement of §3.3 also runs: a
// background controller computes the exact tree; when it finishes, the
// static flows stop and a single refined flow delivers the remaining
// bytes through programmable cores.
//
// On non-fat-tree fabrics (the Fig. 7 leaf–spine) there is no prefix
// tier; PEEL is then its tree-construction contribution: a single
// multicast flow over the layer-peeling tree.
func (in *instance) startPEEL(refine, guard bool, opts core.PlanOptions) error {
	if in.r.Planner == nil {
		tree, err := core.BuildTree(in.r.Net.G, in.c.Source(), in.c.Receivers())
		if err != nil {
			return err
		}
		return in.startTreeFlow(tree, in.c.Receivers(), guard)
	}
	plan, err := in.r.Planner.PlanGroupOpts(in.c.Source(), in.c.Receivers(), opts)
	if err != nil {
		return err
	}
	in.initCompletion()
	params := in.r.Net.Cfg.DCQCN
	if guard {
		params = params.WithGuard()
	}

	static := make([]*netsim.Flow, 0, len(plan.Packets))
	for i := range plan.Packets {
		pkt := &plan.Packets[i]
		f, err := in.r.Net.NewMulticastFlow(pkt.Tree, pkt.Receivers, params)
		if err != nil {
			return err
		}
		in.track(f, pkt.Receivers)
		f.OnChunk(in.deliver)
		f.Send(0, in.c.Bytes)
		static = append(static, f)
	}

	if !refine || in.r.Ctrl == nil {
		return nil
	}
	// Background refinement: packets launch immediately above (fast
	// start); once the controller finishes, cut over to the exact tree.
	in.r.Ctrl.Install(in.r.Net.Engine, func() {
		in.cutOverToRefined(plan, static)
	})
	return nil
}

// cutOverToRefined stops the static prefix flows and delivers the tail of
// the message over the controller-computed exact tree. Members that
// already finished stay finished; the refined flow's chunk completion
// implies every member holds ≥ the full message (static progress is
// monotone and the tail starts at the minimum static offset).
func (in *instance) cutOverToRefined(plan *core.Plan, static []*netsim.Flow) {
	if in.finished || in.pendingHosts == 0 {
		return // collective already completed before the controller did
	}
	if err := in.r.Planner.BuildRefined(plan); err != nil {
		return // refinement unavailable; static flows continue
	}
	// Minimum static progress across unfinished members.
	min := in.c.Bytes
	for i := range plan.Packets {
		for _, m := range plan.Packets[i].Receivers {
			if in.hostDone[m] {
				continue
			}
			got := static[i].ReceivedBytes(m)
			if got < min {
				min = got
			}
		}
	}
	remaining := in.c.Bytes - min
	// Cutting over costs a full tail re-send to every pending receiver;
	// when the static stage is nearly done that wastes more than it
	// saves, so the controller leaves short tails alone.
	if remaining <= in.c.Bytes/8 {
		return
	}
	for _, f := range static {
		f.Close()
	}
	params := in.r.Net.Cfg.DCQCN.WithGuard()
	var pending []topology.NodeID
	for _, m := range plan.Members {
		if !in.hostDone[m] {
			pending = append(pending, m)
		}
	}
	if len(pending) == 0 {
		return
	}
	rf, err := in.r.Net.NewMulticastFlow(plan.Refined, pending, params)
	if err != nil {
		// The refined tree can be stale when links failed while the
		// controller worked; the watchdog (when armed) re-plans delivery,
		// and on a healthy fabric this cannot happen.
		return
	}
	in.track(rf, pending)
	in.stripes[0].tree = plan.Refined
	rf.OnChunk(in.deliver)
	rf.Send(0, remaining)
}
