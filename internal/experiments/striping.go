package experiments

import (
	"math/rand"

	"peel/internal/collective"
	"peel/internal/topology"
	"peel/internal/workload"
)

// StripingStudy evaluates link-disjoint striping (steiner.DisjointTrees
// + the striped-peel schemes) against the single-tree schemes across
// message sizes — the bandwidth-optimal broadcast question of Khalilov
// et al. that closes §2.3's multipath gap. The fabric is the 2:1
// oversubscribed 8-ary fat-tree under elevated background load: the
// regime where a broadcast's bottleneck is its tree's core links, so
// spreading chunks over k disjoint core paths buys up to k× the
// delivery bandwidth. For small messages striping only fragments the
// pipeline; for large ones the disjoint stripes must pull the CCT at or
// below single-tree PEEL (the acceptance gate pinned by
// TestStripingStudyLargeMessages).
func StripingStudy(o Options) (*Result, error) {
	o = o.normalized()
	sizesMB := []float64{4, 16, 64}
	if o.Samples <= Quick().Samples {
		sizesMB = []float64{4, 64}
	}
	build := func() *topology.Graph {
		g := topology.FatTree(8)
		g.Oversubscribe(2)
		return g
	}
	labels := []string{"ring", "orca", "peel", "multitree-4", "striped-2", "striped-peel"}
	schemes := []collective.Scheme{collective.Ring, collective.Orca, collective.PEEL,
		collective.MultiTree4, // shared-link striping control
		collective.StripedPEEL2, collective.StripedPEEL}
	workloads := make([][]*workload.Collective, len(sizesMB))
	for mi, mb := range sizesMB {
		msg := int64(mb) << 20
		clW := workload.NewCluster(build(), 8)
		rng := rand.New(rand.NewSource(o.Seed + int64(mb)))
		// Elevated load creates the core-link contention striping is for.
		cols, err := clW.Generate(o.Samples, 0.8, 100e9, workload.Spec{GPUs: 256, Bytes: msg}, rng)
		if err != nil {
			return nil, err
		}
		workloads[mi] = cols
	}
	res := &Result{
		Name:   "Striping (§2.3 / Khalilov): link-disjoint trees vs single-tree schemes (256-GPU, 2:1 oversub)",
		XLabel: "msgMB",
		X:      sizesMB,
		Notes: []string{
			"striped-peel* stripe chunks over pairwise link-disjoint peeled trees; multitree-4's variants may share links",
			"2:1 oversubscribed core at 0.8 load: trees, not NICs, are the bottleneck",
		},
	}
	return grid(res, labels, o, func(mi, vi int) trial {
		return trial{build: build, cfg: o.configFor(int64(sizesMB[mi])<<20, o.Seed), scheme: schemes[vi],
			cols: workloads[mi], planner: true}
	})
}
