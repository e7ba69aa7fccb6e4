package collective

import (
	"peel/internal/netsim"
	"peel/internal/topology"
)

// successors gives the positions node i of an n-member overlay order
// forwards to; positions past the end are skipped. The relay launcher and
// the Fig. 1 link-load walk share them.
type successors func(i, n int) []int

// ringNext chains the members in order: the unicast ring.
func ringNext(i, _ int) []int { return []int{i + 1} }

// binaryChildren roots a complete binary tree at position 0.
func binaryChildren(i, _ int) []int { return []int{2*i + 1, 2*i + 2} }

// star fans position 0 out to every other member: Orca's rack relay.
func star(i, n int) []int {
	var out []int
	for j := 1; i == 0 && j < n; j++ {
		out = append(out, j)
	}
	return out
}

// relayNode is one participant of a chunked unicast overlay: it owns the
// flows toward its overlay successors and forwards each chunk as soon as
// it holds it completely — the pipelined forwarding the paper describes
// for its Ring/Tree baselines.
type relayNode struct {
	host topology.NodeID
	out  []*netsim.Flow
}

// relay is a unicast overlay broadcast: members in placement order
// (bin-packed, so overlay neighbours are mostly rack-local), the source
// at position 0, the message cut into Chunks pieces so transmission
// pipelines along the overlay. With mirrored set it is NCCL's double
// binary tree (the paper's Fig. 1 names "double binary trees" among the
// popular logical topologies): a second order — the source, then the
// other members reversed — carries the odd chunks and the first the even
// ones, so most interior nodes of one tree are leaves of the other and
// per-node send load halves versus a single tree.
type relay struct {
	next     successors
	mirrored bool
}

func (rl relay) broadcast(in *instance) error {
	hosts := in.c.Hosts
	orders := [][]topology.NodeID{hosts}
	if rl.mirrored {
		m := make([]topology.NodeID, len(hosts))
		m[0] = hosts[0]
		for i := 1; i < len(hosts); i++ {
			m[i] = hosts[len(hosts)-i]
		}
		orders = append(orders, m)
	}
	in.initRelay()
	for o, order := range orders {
		root, err := in.overlay(order, rl.next)
		if err != nil {
			return err
		}
		// The source holds every chunk already.
		for c := o; c < len(in.sizes); c += len(orders) {
			in.forward(root, c)
		}
	}
	return nil
}

// initRelay arms completion by per-host chunk count, the one counter
// every relay receiver completes on.
func (in *instance) initRelay() {
	in.initCompletion()
	in.sizes = in.chunkSizes()
	in.relayed = make(map[topology.NodeID]int, len(in.c.Hosts))
}

// overlay wires one member order's unicast flows: position i sends to
// each of next(i, n), and every receiving node relays what it gets. It
// returns the root, position 0.
func (in *instance) overlay(order []topology.NodeID, next successors) (*relayNode, error) {
	nodes := make([]*relayNode, len(order))
	for i, h := range order {
		nodes[i] = &relayNode{host: h}
	}
	params := in.r.Net.Cfg.DCQCN
	for i := range order {
		for _, j := range next(i, len(order)) {
			if j >= len(order) {
				continue
			}
			f, err := in.unicastFlow(order[i], order[j], params)
			if err != nil {
				return nil, err
			}
			in.track(f, order[j:j+1:j+1])
			succ := nodes[j]
			nodes[i].out = append(nodes[i].out, f)
			f.OnChunk(func(_ topology.NodeID, chunk int) { in.relayChunk(succ, chunk) })
		}
	}
	return nodes[0], nil
}

// forward sends a chunk on the node's successor flows. Flows closed by a
// failure repair are skipped: the repair tree owns delivery to those
// receivers from that point on.
func (in *instance) forward(n *relayNode, chunk int) {
	for _, f := range n.out {
		if !f.Closed() {
			f.Send(chunk, in.sizes[chunk])
		}
	}
}

// relayChunk records a chunk arrival at an overlay node, forwards it, and
// completes the host once all chunks landed.
func (in *instance) relayChunk(n *relayNode, chunk int) {
	in.forward(n, chunk)
	in.relayed[n.host]++
	if in.relayed[n.host] == len(in.sizes) {
		in.hostComplete(n.host)
	}
}
