package collective

import (
	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// StripedAllShardsDelivered checks, at each receiver's completion under
// a striped scheme, that the chunk bitmap is full AND the bytes netsim
// actually delivered to that receiver across all stripe flows cover the
// whole message — the chunk accounting cross-checked against the
// fabric's byte accounting.
const StripedAllShardsDelivered = "collective.striped-all-shards-delivered"

func init() {
	invariant.Register(invariant.Checker{
		Name:   StripedAllShardsDelivered,
		Anchor: "bandwidth-optimal allgather (Khalilov et al.), §4 CCT definition",
		Desc:   "a striped collective completes a receiver only once every chunk arrived on some stripe and delivered bytes cover the message",
	})
}

// startStriped launches striped-peel*: up to k pairwise link-disjoint
// peeled trees (steiner.DisjointTrees), Khalilov et al.'s
// bandwidth-optimal broadcast construction. A dead link sits on at most
// one of them, so at most one stripe stalls and is repaired while the
// other k−1 keep delivering.
func (in *instance) startStriped(k int) error {
	trees, dstats, err := steiner.DisjointTrees(in.r.Net.G, in.c.Source(), in.c.Receivers(), k)
	if err != nil {
		return err
	}
	if ts := telemetry.Active(); ts != nil {
		ts.Counter("collective.striped.collectives").Inc()
		ts.Counter("collective.striped.stripes").Add(int64(len(trees)))
		if dstats.Built < dstats.Requested {
			ts.Counter("collective.striped.underprovisioned").Inc()
		}
		ts.Histogram("collective.striped.trees_built", telemetry.LinearLayout(0, 1, 9)).
			Observe(int64(len(trees)))
	}
	return in.launchStripes(trees)
}

// startMultiTree launches multitree-*, the multicast-vs-multipath
// exploration of §2.3's open question: up to k equal-cost tree variants
// (differing in their core-tier choices, so they may share links).
// Striping re-gains the path diversity load balancers want, at the cost
// of proportionally more switch replication state.
func (in *instance) startMultiTree(k int) error {
	g, src, receivers := in.r.Net.G, in.c.Source(), in.c.Receivers()
	var trees []*steiner.Tree
	seen := map[string]bool{}
	for v := 0; len(trees) < k && v < k*4; v++ {
		tree, err := steiner.SymmetricOptimalVariant(g, src, receivers, uint64(v))
		if err != nil {
			// Irregular fabrics (no symmetric variant enumeration —
			// topology.HeteroFatTree, degraded OCS mappings): fall back to
			// the single layer-peeled tree. Report.Stripes surfaces the
			// achieved count.
			if len(trees) > 0 {
				break
			}
			if tree, err = core.BuildTree(g, src, receivers); err != nil {
				return err
			}
			v = k * 4 // no further variants to probe
		}
		sig := treeSignature(tree)
		if seen[sig] {
			continue // identical variant (small fabrics wrap around)
		}
		seen[sig] = true
		trees = append(trees, tree)
	}
	if ts := telemetry.Active(); ts != nil && len(trees) < k {
		ts.Counter("collective.striped.underprovisioned").Inc()
	}
	return in.launchStripes(trees)
}

// treeSignature fingerprints a tree by its member sequence, detecting
// wrapped-around variants.
func treeSignature(t *steiner.Tree) string {
	sig := make([]byte, 0, len(t.Members)*4)
	for _, m := range t.Members {
		sig = append(sig, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(sig)
}

// launchStripes sends the message's chunks round-robin over one stripe
// per tree and arms the chunk bitmaps that complete receivers.
func (in *instance) launchStripes(trees []*steiner.Tree) error {
	in.initCompletion()
	receivers := in.c.Receivers()
	in.sizes = in.chunkSizes()
	in.got = make(map[topology.NodeID][]bool, len(receivers))
	in.need = make(map[topology.NodeID]int, len(receivers))
	for _, m := range receivers {
		in.got[m] = make([]bool, len(in.sizes))
		in.need[m] = len(in.sizes)
	}
	params := in.r.Net.Cfg.DCQCN.WithGuard()
	in.stripes = make([]*stripe, len(trees))
	for i, tree := range trees {
		st := &stripe{idx: i, tree: tree, last: -1}
		for c := i; c < len(in.sizes); c += len(trees) {
			st.chunks = append(st.chunks, c)
		}
		st.remaining = len(st.chunks) * len(receivers)
		f, err := in.r.Net.NewMulticastFlow(tree, receivers, params)
		if err != nil {
			return err
		}
		st.track(f, receivers)
		f.OnChunk(in.deliver)
		in.stripes[i] = st
	}
	for c, size := range in.sizes {
		in.stripes[c%len(trees)].flows[0].f.Send(c, size)
	}
	return nil
}

// deliver counts one chunk arrival at a receiver. Single-tree runs
// complete the receiver outright: their flows carry the whole message, or
// its tail. Striped runs record the chunk in the receiver's bitmap —
// repair flows may re-deliver chunks a receiver already holds, and the
// dedup lives here, above netsim's per-flow accounting — and complete
// the receiver once the bitmap fills.
func (in *instance) deliver(recv topology.NodeID, chunk int) {
	if in.got == nil {
		in.hostComplete(recv)
		return
	}
	bits := in.got[recv]
	if bits == nil || bits[chunk] {
		return // not a member, or a repair flow re-delivered a held chunk
	}
	bits[chunk] = true
	in.need[recv]--
	in.stripes[chunk%len(in.stripes)].remaining--
	if in.need[recv] > 0 {
		return
	}
	if s := invariant.Active(); s != nil {
		// Cross-check the chunk bitmap against netsim's delivered-bytes
		// accounting: summed over every flow of every stripe (original
		// plus repairs), this receiver must have been offered at least the
		// full message.
		var gotBytes int64
		for _, st := range in.stripes {
			for _, w := range st.flows {
				gotBytes += w.f.ReceivedBytes(recv)
			}
		}
		full := true
		for _, b := range bits {
			full = full && b
		}
		s.Checkf(StripedAllShardsDelivered, full && gotBytes >= in.c.Bytes,
			"receiver %d completed with full-bitmap=%v, %d of %d bytes delivered",
			recv, full, gotBytes, in.c.Bytes)
	}
	in.hostComplete(recv)
}
