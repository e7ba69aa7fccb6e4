package collective

import (
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/topology"
	"peel/internal/workload"
)

// AllGather support — the other bandwidth-bound collective the paper's
// motivation cites (network-offloaded broadcast/allgather, [23]). Every
// member starts with one shard of size Bytes/N; afterwards every member
// holds all N shards. A scheme's roster row names its allgather data
// path, one of three:
//
//   - Ring: the classic NCCL algorithm. Shard s travels the ring from its
//     owner through N−1 successors; each node forwards a shard onward as
//     soon as it holds it. Bandwidth-optimal in aggregate ((N−1)/N of the
//     total per link), but the last shard serializes N−1 hops.
//   - Multicast (Optimal or PEEL): every member multicasts its shard to
//     the group over its own tree, all N trees concurrently active.
//   - Striped (striped-peel*): every member's shard is split over its own
//     link-disjoint trees.
//
// StartAllGather completes when every member holds every shard, plus the
// NVLink stage for the gathered message.
func (r *Runner) StartAllGather(c *workload.Collective, s Scheme, done func(cct sim.Time)) error {
	in, e, err := r.begin(c, s, true, func(rep Report) { done(rep.CCT) })
	if in == nil {
		return err
	}
	// Completion: every host must collect the other n−1 shards.
	n := len(c.Hosts)
	ag := &allGather{in: in, shard: max(c.Bytes/int64(n), 1),
		pending: make(map[topology.NodeID]int, n), remaining: n * (n - 1)}
	for _, h := range c.Hosts {
		ag.pending[h] = n - 1
	}
	return e.allgather(ag)
}

type allGather struct {
	in        *instance
	shard     int64
	pending   map[topology.NodeID]int
	remaining int
	striped   bool
}

// gotShard records that host h received one shard it lacked.
func (ag *allGather) gotShard(h topology.NodeID) {
	if ag.pending[h] <= 0 {
		return
	}
	ag.pending[h]--
	ag.remaining--
	if ag.remaining > 0 {
		return
	}
	if ag.striped {
		if s := invariant.Active(); s != nil {
			// The striped allgather is done: every member must now hold
			// every shard — a zero pending count for each host.
			missing := 0
			for _, h := range ag.in.c.Hosts {
				if ag.pending[h] != 0 {
					missing++
				}
			}
			s.Checkf(StripedAllShardsDelivered, missing == 0,
				"striped allgather finished with %d hosts still missing shards", missing)
		}
	}
	in := ag.in
	eng := in.r.Net.Engine
	eng.After(in.r.nvlinkStage(in.c.Bytes), func() {
		in.reportDone(Report{CCT: eng.Now() - in.startedAt})
	})
}

// gatherRing wires the classic ring allgather: flows i→i+1 (mod n); each
// node injects its own shard immediately and forwards each received shard
// unless the successor owns it.
func gatherRing(ag *allGather) error {
	in := ag.in
	hosts := in.c.Hosts
	n := len(hosts)
	params := in.r.Net.Cfg.DCQCN
	flows := make([]*netsim.Flow, n)
	for i := range flows {
		f, err := in.unicastFlow(hosts[i], hosts[(i+1)%n], params)
		if err != nil {
			return err
		}
		flows[i] = f
		succ := (i + 1) % n
		f.OnChunk(func(_ topology.NodeID, shardID int) {
			// The successor now holds shard shardID.
			ag.gotShard(hosts[succ])
			// Forward onward unless the next node is the shard's owner.
			if (succ+1)%n != shardID {
				flows[succ].Send(shardID, ag.shard)
			}
		})
	}
	for i := 0; i < n; i++ {
		// Each node launches its own shard around the ring.
		flows[i].Send(i, ag.shard)
	}
	return nil
}

// others lists every member but the i-th: the receivers of its shard.
func (ag *allGather) others(i int) []topology.NodeID {
	hosts := ag.in.c.Hosts
	out := make([]topology.NodeID, 0, len(hosts)-1)
	out = append(out, hosts[:i]...)
	return append(out, hosts[i+1:]...)
}

// allgather runs n concurrent shard broadcasts, each over its member's own
// plan from the same tree source as the broadcast.
func (m mcast) allgather(ag *allGather) error {
	in := ag.in
	for i, src := range in.c.Hosts {
		plan, _, err := in.r.plan(m, src, ag.others(i))
		if err != nil {
			return err
		}
		fs, err := in.r.flows(plan, m.params(in.r), func(recv topology.NodeID, _ int) { ag.gotShard(recv) })
		if err != nil {
			return err
		}
		for _, f := range fs {
			f.Send(i, ag.shard)
		}
	}
	return nil
}

// allgather runs the bandwidth-optimal allgather of Khalilov et al.:
// every member's shard rides its own set of up to k link-disjoint trees
// (steiner.DisjointTrees from that member), the shard split into one
// piece per tree. A receiver counts a shard gathered once all of its
// owner's pieces arrived. All N striped broadcasts are concurrently
// active, as in the single-tree multicast path. The trees are always
// disjoint: s.trees sources a broadcast from the collective's source.
func (s striped) allgather(ag *allGather) error {
	in := ag.in
	params := in.r.Net.Cfg.DCQCN.WithGuard()
	ag.striped = true
	for i, src := range in.c.Hosts {
		others := ag.others(i)
		trees, _, err := steiner.DisjointTrees(in.r.Net.G, src, others, s.k)
		if err != nil {
			return err
		}
		// Piece sizes: shard split across the trees, remainder on the last.
		nt := int64(len(trees))
		base := ag.shard / nt
		if base == 0 {
			base = 1
		}
		// left[r] counts the pieces of THIS shard receiver r still lacks.
		left := make(map[topology.NodeID]int, len(others))
		for _, h := range others {
			left[h] = len(trees)
		}
		for ti, tree := range trees {
			size := base
			if ti == len(trees)-1 {
				if size = ag.shard - base*(nt-1); size <= 0 {
					size = 1
				}
			}
			f, err := in.r.Net.NewMulticastFlow(tree, others, params)
			if err != nil {
				return err
			}
			f.OnChunk(func(recv topology.NodeID, _ int) {
				left[recv]--
				if left[recv] == 0 {
					ag.gotShard(recv)
				}
			})
			f.Send(ti, size)
		}
	}
	return nil
}
