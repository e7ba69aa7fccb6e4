package collective

import (
	"fmt"

	"peel/internal/routing"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// Link-load analysis for Fig. 1: how many times one broadcast message
// traverses each physical link under each logical topology. Unicast rings
// and trees re-cross core links; the multicast-optimal tree crosses every
// link at most once.

// RingLinkLoads counts per-link message traversals for a unicast ring
// broadcast over the member hosts in the given order (source first):
// every consecutive pair ships the full message once.
func RingLinkLoads(g *topology.Graph, hosts []topology.NodeID) ([]int, error) {
	return overlayLinkLoads(g, hosts, ringNext)
}

// BinaryTreeLinkLoads counts per-link traversals for the binary-tree
// broadcast over the member hosts (source at index 0, children 2i+1/2i+2).
func BinaryTreeLinkLoads(g *topology.Graph, hosts []topology.NodeID) ([]int, error) {
	return overlayLinkLoads(g, hosts, binaryChildren)
}

// overlayLinkLoads walks the overlay edges the relay launcher wires,
// adding one traversal per link of each edge's shortest path.
func overlayLinkLoads(g *topology.Graph, hosts []topology.NodeID, next successors) ([]int, error) {
	loads := make([]int, g.NumLinks())
	for i := range hosts {
		for _, j := range next(i, len(hosts)) {
			if j >= len(hosts) {
				continue
			}
			if err := addPathLoads(g, hosts[i], hosts[j], loads); err != nil {
				return nil, err
			}
		}
	}
	return loads, nil
}

// OptimalLinkLoads counts per-link traversals for the multicast-optimal
// broadcast: the Steiner tree's links, each exactly once.
func OptimalLinkLoads(g *topology.Graph, hosts []topology.NodeID) ([]int, error) {
	tree, err := steiner.SymmetricOptimal(g, hosts[0], hosts[1:])
	if err != nil {
		return nil, err
	}
	return tree.LinkLoads(g), nil
}

func addPathLoads(g *topology.Graph, a, b topology.NodeID, loads []int) error {
	p := routing.ShortestPath(g, a, b)
	if p == nil {
		return fmt.Errorf("collective: no path %d->%d", a, b)
	}
	for _, l := range routing.PathLinks(g, p) {
		loads[l]++
	}
	return nil
}

// SumLoads totals traversals, optionally restricted to a link filter
// (e.g. topology.SwitchLinks isolates the core tier Fig. 1 highlights).
func SumLoads(g *topology.Graph, loads []int, filter topology.LinkFilter) int {
	total := 0
	for i, n := range loads {
		if n == 0 {
			continue
		}
		if filter == nil || filter(g, g.Link(topology.LinkID(i))) {
			total += n
		}
	}
	return total
}
