package collective

import (
	"sort"

	"peel/internal/topology"
)

// orca models Orca (NSDI'22) as the paper does in §3.1/§4: a centralized
// SDN controller installs per-group rules before any data moves
// (flow-setup delay ~ N(10 ms, 5 ms)), the fabric then multicasts to one
// server-side agent per rack, and each agent fans the message out to the
// remaining member hosts of its rack over its own NIC (the host-assisted
// last hop that keeps Orca's headers small). Agent relays are
// chunk-pipelined like the other unicast baselines. Without setup the
// controller is free: Fig. 4's "without controller overhead" curve.
type orca struct{ setup bool }

func (o orca) broadcast(in *instance) error {
	g := in.r.Net.G
	in.initRelay()

	// Group member hosts by rack, each rack in ID order; the lowest-ID
	// member of each rack is its agent. The source acts as the agent of
	// its own rack.
	src := in.c.Source()
	byRack := map[topology.NodeID][]topology.NodeID{g.EdgeSwitchOf(src): {src}}
	racks := []topology.NodeID{g.EdgeSwitchOf(src)}
	receivers := append([]topology.NodeID(nil), in.c.Receivers()...)
	sort.Slice(receivers, func(i, j int) bool { return receivers[i] < receivers[j] })
	for _, m := range receivers {
		r := g.EdgeSwitchOf(m)
		if byRack[r] == nil {
			racks = append(racks, r)
		}
		byRack[r] = append(byRack[r], m)
	}
	sort.Slice(racks, func(i, j int) bool { return racks[i] < racks[j] })

	// Each rack fans out from its agent over a star overlay.
	var agents []topology.NodeID
	agentNode := make(map[topology.NodeID]*relayNode, len(racks))
	for _, r := range racks {
		root, err := in.overlay(byRack[r], star)
		if err != nil {
			return err
		}
		agentNode[root.host] = root
		if root.host != src {
			agents = append(agents, root.host)
		}
	}

	start := func() {
		// Fabric multicast to the agents (if any rack besides the
		// source's has members), over Optimal's exact tree. A failure
		// here surfaces as a never-completing collective, which
		// experiment harnesses flag; returning it from inside the event
		// loop would lose its context.
		if len(agents) > 0 {
			plan, _, err := in.r.plan(mcast{}, src, agents)
			if err != nil {
				return
			}
			fs, err := in.r.flows(plan, in.r.Net.Cfg.DCQCN, func(recv topology.NodeID, chunk int) {
				// The agent holds the chunk: relay it and track its own
				// completion as a member.
				in.relayChunk(agentNode[recv], chunk)
			})
			if err != nil {
				return
			}
			in.track(fs[0], agents)
			for c, size := range in.sizes {
				fs[0].Send(c, size)
			}
		}
		// The source's own rack relays start immediately: the source
		// holds all chunks.
		for c := range in.sizes {
			in.forward(agentNode[src], c)
		}
	}

	if o.setup && in.r.Ctrl != nil {
		// The watchdog must not mistake the ~10 ms flow-setup delay for a
		// data-path stall: no progress is expected until rules land.
		in.setupPending = true
		in.r.Ctrl.Install(in.r.Net.Engine, func() {
			in.setupPending = false
			start()
		})
	} else {
		start()
	}
	return nil
}
