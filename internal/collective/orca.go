package collective

import (
	"sort"

	"peel/internal/core"
	"peel/internal/netsim"
	"peel/internal/topology"
)

// startOrca models Orca (NSDI'22) as the paper does in §3.1/§4: a
// centralized SDN controller installs per-group rules before any data
// moves (flow-setup delay ~ N(10 ms, 5 ms)), the fabric then multicasts to
// one server-side agent per rack, and each agent fans the message out to
// the remaining member hosts of its rack over its own NIC (the host-
// assisted last hop that keeps Orca's headers small). Agent relays are
// chunk-pipelined like the other unicast baselines.
func (in *instance) startOrca(useCtrl bool) error {
	g := in.r.Net.G
	in.initCompletion()
	sizes := in.chunkSizes()
	params := in.r.Net.Cfg.DCQCN

	// Group member hosts by rack; the lowest-ID member of each rack is
	// its agent. The source acts as the agent of its own rack.
	src := in.c.Source()
	srcRack := g.EdgeSwitchOf(src)
	byRack := map[topology.NodeID][]topology.NodeID{}
	for _, m := range in.c.Receivers() {
		r := g.EdgeSwitchOf(m)
		byRack[r] = append(byRack[r], m)
	}
	racks := make([]topology.NodeID, 0, len(byRack))
	for r := range byRack {
		sort.Slice(byRack[r], func(i, j int) bool { return byRack[r][i] < byRack[r][j] })
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool { return racks[i] < racks[j] })

	type rackPlan struct {
		agent topology.NodeID
		peers []topology.NodeID // members served by the agent's relay
	}
	var agents []topology.NodeID
	plans := make([]rackPlan, 0, len(racks))
	for _, r := range racks {
		members := byRack[r]
		if r == srcRack {
			// The source relays to its rack peers directly.
			plans = append(plans, rackPlan{agent: src, peers: members})
			continue
		}
		plans = append(plans, rackPlan{agent: members[0], peers: members[1:]})
		agents = append(agents, members[0])
	}

	// Build the rack-local relay flows and wire chunk forwarding.
	type relay struct {
		node  *relayNode
		flows []*netsim.Flow
	}
	relays := make([]*relay, len(plans))
	for i, p := range plans {
		rl := &relay{node: &relayNode{host: p.agent}}
		for _, peer := range p.peers {
			f, err := in.unicastFlow(p.agent, peer, params)
			if err != nil {
				return err
			}
			in.track(f, []topology.NodeID{peer})
			peerHost := peer
			f.OnChunk(func(_ topology.NodeID, chunk int) {
				in.orcaPeerChunk(peerHost, chunk, len(sizes))
			})
			rl.flows = append(rl.flows, f)
			rl.node.out = append(rl.node.out, f)
		}
		relays[i] = rl
	}

	start := func() {
		// Fabric multicast to the agents (if any rack besides the
		// source's has members).
		if len(agents) > 0 {
			tree, err := core.BuildTree(g, src, agents)
			if err != nil {
				in.failStart(err)
				return
			}
			mf, err := in.r.Net.NewMulticastFlow(tree, agents, params)
			if err != nil {
				in.failStart(err)
				return
			}
			in.track(mf, agents)
			mf.OnChunk(func(recv topology.NodeID, chunk int) {
				// The agent holds the chunk: relay it and track its own
				// completion as a member.
				for i, p := range plans {
					if p.agent == recv {
						in.relayOrcaAgent(relays[i].node, recv, chunk, sizes)
						return
					}
				}
			})
			for c := range sizes {
				mf.Send(c, sizes[c])
			}
		}
		// The source's own rack relays start immediately: the source
		// holds all chunks.
		for i := range plans {
			if plans[i].agent == src {
				for c := range sizes {
					for _, f := range relays[i].flows {
						f.Send(c, sizes[c])
					}
				}
			}
		}
	}

	if useCtrl && in.r.Ctrl != nil {
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

// orcaChunks tracks per-host chunk counts for agent-relayed peers.
func (in *instance) orcaPeerChunk(host topology.NodeID, chunk, total int) {
	if in.orcaGot == nil {
		in.orcaGot = map[topology.NodeID]int{}
	}
	in.orcaGot[host]++
	if in.orcaGot[host] == total {
		in.hostComplete(host)
	}
}

// relayOrcaAgent forwards a chunk from an agent to its rack peers and
// completes the agent itself once it has every chunk.
func (in *instance) relayOrcaAgent(n *relayNode, agent topology.NodeID, chunk int, sizes []int64) {
	for _, f := range n.out {
		if f.Closed() {
			continue
		}
		f.Send(chunk, sizes[chunk])
	}
	n.gotChunks++
	if n.gotChunks == len(sizes) {
		in.hostComplete(agent)
	}
}

// failStart aborts a deferred start (controller callback) — the error
// surfaces as a never-completing collective, which experiment harnesses
// flag; panicking inside the event loop would lose context.
func (in *instance) failStart(err error) {
	in.startErr = err
}
