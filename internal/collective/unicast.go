package collective

import (
	"peel/internal/netsim"
	"peel/internal/topology"
)

// relayNode is one participant of a chunked unicast overlay (ring or
// binary tree): it owns the flows toward its overlay successors and
// forwards each chunk as soon as it holds it completely — the pipelined
// forwarding the paper describes for its Ring/Tree baselines.
type relayNode struct {
	host      topology.NodeID
	out       []*netsim.Flow
	gotChunks int
}

// startRing runs the unicast ring broadcast: members in placement order
// (bin-packed, so ring neighbors are mostly rack-local), the source at
// position 0, each node forwarding to its successor. The message is cut
// into Chunks pieces so transmission pipelines along the ring.
func (in *instance) startRing() error {
	hosts := in.c.Hosts
	in.initCompletion()
	sizes := in.chunkSizes()
	params := in.r.Net.Cfg.DCQCN

	nodes := make([]*relayNode, len(hosts))
	for i, h := range hosts {
		nodes[i] = &relayNode{host: h}
	}
	// Flows i → i+1 for all but the last member.
	for i := 0; i+1 < len(hosts); i++ {
		f, err := in.unicastFlow(hosts[i], hosts[i+1], params)
		if err != nil {
			return err
		}
		in.track(f, hosts[i+1:i+2])
		next := nodes[i+1]
		nodes[i].out = append(nodes[i].out, f)
		f.OnChunk(func(recv topology.NodeID, chunk int) {
			in.relayChunk(next, chunk, sizes)
		})
	}
	// The source holds every chunk already.
	for c := range sizes {
		for _, f := range nodes[0].out {
			f.Send(c, sizes[c])
		}
	}
	return nil
}

// startBinTree runs the binary-tree broadcast: members in placement order
// form a complete binary tree rooted at the source; each node forwards
// each chunk to both children, pipelined.
func (in *instance) startBinTree() error {
	hosts := in.c.Hosts
	in.initCompletion()
	sizes := in.chunkSizes()
	params := in.r.Net.Cfg.DCQCN

	nodes := make([]*relayNode, len(hosts))
	for i, h := range hosts {
		nodes[i] = &relayNode{host: h}
	}
	for i := range hosts {
		for _, ci := range []int{2*i + 1, 2*i + 2} {
			if ci >= len(hosts) {
				continue
			}
			f, err := in.unicastFlow(hosts[i], hosts[ci], params)
			if err != nil {
				return err
			}
			in.track(f, hosts[ci:ci+1])
			child := nodes[ci]
			nodes[i].out = append(nodes[i].out, f)
			f.OnChunk(func(recv topology.NodeID, chunk int) {
				in.relayChunk(child, chunk, sizes)
			})
		}
	}
	for c := range sizes {
		for _, f := range nodes[0].out {
			f.Send(c, sizes[c])
		}
	}
	return nil
}

// relayChunk records a chunk arrival at an overlay node, forwards it to
// the node's successors, and completes the host once all chunks landed.
// Successor flows closed by a failure repair are skipped: the repair tree
// owns delivery to those receivers from that point on.
func (in *instance) relayChunk(n *relayNode, chunk int, sizes []int64) {
	for _, f := range n.out {
		if f.Closed() {
			continue
		}
		f.Send(chunk, sizes[chunk])
	}
	n.gotChunks++
	if n.gotChunks == len(sizes) {
		in.hostComplete(n.host)
	}
}

// startDblBinTree runs NCCL's double binary tree broadcast (the paper's
// Fig. 1 names "double binary trees" among the popular logical
// topologies): two complementary binary trees over the members, each
// carrying half of the chunks. The second tree mirrors the first
// (member order reversed), so most interior nodes of one tree are leaves
// of the other and per-node send load halves versus a single tree.
func (in *instance) startDblBinTree() error {
	hosts := in.c.Hosts
	in.initCompletion()
	sizes := in.chunkSizes()
	params := in.r.Net.Cfg.DCQCN

	// Completion needs per-host chunk counts across both trees.
	counts := map[topology.NodeID]int{}
	total := len(sizes)
	arm := func(order []topology.NodeID, take func(chunk int) bool) error {
		nodes := make([]*relayNode, len(order))
		for i, h := range order {
			nodes[i] = &relayNode{host: h}
		}
		for i := range order {
			for _, ci := range []int{2*i + 1, 2*i + 2} {
				if ci >= len(order) {
					continue
				}
				f, err := in.unicastFlow(order[i], order[ci], params)
				if err != nil {
					return err
				}
				in.track(f, order[ci:ci+1])
				child := nodes[ci]
				nodes[i].out = append(nodes[i].out, f)
				f.OnChunk(func(recv topology.NodeID, chunk int) {
					for _, fo := range child.out {
						if fo.Closed() {
							continue
						}
						fo.Send(chunk, sizes[chunk])
					}
					counts[recv]++
					if counts[recv] == total {
						in.hostComplete(recv)
					}
				})
			}
		}
		for c := range sizes {
			if !take(c) {
				continue
			}
			for _, f := range nodes[0].out {
				f.Send(c, sizes[c])
			}
		}
		return nil
	}
	// Tree A: members in placement order, even chunks.
	if err := arm(hosts, func(c int) bool { return c%2 == 0 }); err != nil {
		return err
	}
	// Tree B: the source stays root; the remaining members reversed.
	order := make([]topology.NodeID, len(hosts))
	order[0] = hosts[0]
	for i := 1; i < len(hosts); i++ {
		order[i] = hosts[len(hosts)-i]
	}
	return arm(order, func(c int) bool { return c%2 == 1 })
}
