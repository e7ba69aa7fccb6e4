package collective

import (
	"peel/internal/core"
	"peel/internal/dcqcn"
	"peel/internal/netsim"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// mcast is a multicast scheme: one tree source (Runner.plan) and one
// flow per planned packet, each carrying the full message. The zero value
// is Optimal, the bandwidth-optimal baseline: a single flow over the
// minimum Steiner tree (super-node construction on failure-free fabrics,
// layer-peeling under failures), with per-group replication rules
// assumed free — the idealized lower bound of Fig. 5.
type mcast struct {
	// prefixes selects PEEL's static-prefix stage: one flow per ⟨pod,
	// prefix⟩ packet, each carrying the full message up its own copy of
	// the funnel and down its prefix block, over-covered devices
	// included. On non-fat-tree fabrics (the Fig. 7 leaf–spine, no
	// Planner) there is no prefix tier; PEEL is then its tree-
	// construction contribution, a single flow over the layer-peeling
	// tree.
	prefixes bool
	opts     core.PlanOptions
	// guard replaces DCQCN's receiver-side rate limiter with PEEL's
	// sender-side guard timer (§4).
	guard bool
	// refine also runs the two-stage refinement of §3.3: a background
	// controller computes the exact tree; when it finishes, the static
	// flows stop and a single refined flow delivers the remaining bytes
	// through programmable cores.
	refine bool
}

// plan is the one multicast tree source: PEEL's prefix packets when m
// asks for them and a Planner serves the fabric, otherwise one exact tree
// (core.BuildTree) as a single packet. The tree is also returned as the
// graft base for repair patches; prefix plans have none.
func (r *Runner) plan(m mcast, src topology.NodeID, receivers []topology.NodeID) (*core.Plan, *steiner.Tree, error) {
	if m.prefixes && r.Planner != nil {
		p, err := r.Planner.PlanGroupOpts(src, receivers, m.opts)
		return p, nil, err
	}
	tree, err := core.BuildTree(r.Net.G, src, receivers)
	if err != nil {
		return nil, nil, err
	}
	pkt := core.Packet{Tree: tree, Receivers: receivers}
	return &core.Plan{Source: src, Members: receivers, Packets: []core.Packet{pkt}}, tree, nil
}

// flows opens one multicast flow per packet of p, each reporting chunk
// arrivals to on.
func (r *Runner) flows(p *core.Plan, params dcqcn.Params, on netsim.ChunkHandler) ([]*netsim.Flow, error) {
	fs := make([]*netsim.Flow, len(p.Packets))
	for i := range p.Packets {
		f, err := r.Net.NewMulticastFlow(p.Packets[i].Tree, p.Packets[i].Receivers, params)
		if err != nil {
			return nil, err
		}
		f.OnChunk(on)
		fs[i] = f
	}
	return fs, nil
}

// params returns the sender configuration of m's flows.
func (m mcast) params(r *Runner) dcqcn.Params {
	if m.guard {
		return r.Net.Cfg.DCQCN.WithGuard()
	}
	return r.Net.Cfg.DCQCN
}

func (m mcast) broadcast(in *instance) error {
	plan, base, err := in.r.plan(m, in.c.Source(), in.c.Receivers())
	if err != nil {
		return err
	}
	in.initCompletion()
	in.stripes[0].tree = base
	static, err := in.r.flows(plan, m.params(in.r), in.deliver)
	if err != nil {
		return err
	}
	for i, f := range static {
		in.track(f, plan.Packets[i].Receivers)
		f.Send(0, in.c.Bytes)
	}
	// Background refinement: packets launch immediately above (fast
	// start); once the controller finishes, cut over to the exact tree. A
	// single exact tree (no prefix packets) has nothing to refine.
	if m.refine && base == nil && in.r.Ctrl != nil {
		in.r.Ctrl.Install(in.r.Net.Engine, func() { in.cutOverToRefined(plan, static) })
	}
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
	least := in.c.Bytes
	for i := range plan.Packets {
		for _, m := range plan.Packets[i].Receivers {
			if !in.hostDone[m] {
				least = min(least, static[i].ReceivedBytes(m))
			}
		}
	}
	remaining := in.c.Bytes - least
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
	pending := in.pending(nil)
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
