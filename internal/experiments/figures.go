package experiments

import (
	"fmt"
	"math/rand"

	"peel/internal/bloom"
	"peel/internal/collective"
	"peel/internal/netsim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// Fig1 reproduces Figure 1: bandwidth consumption of unicast Ring and
// Binary Tree versus the multicast optimum for one Broadcast in the
// paper's two-spine/two-leaf fabric with eight GPUs. Values are total
// link traversals of the message (aggregate bytes in message units),
// plus the core-tier traversals the figure annotates.
func Fig1(o Options) (*Result, error) {
	g := topology.LeafSpine(2, 2, 4)
	hosts := g.Hosts()
	ring, err := collective.RingLinkLoads(g, hosts)
	if err != nil {
		return nil, err
	}
	tree, err := collective.BinaryTreeLinkLoads(g, hosts)
	if err != nil {
		return nil, err
	}
	opt, err := collective.OptimalLinkLoads(g, hosts)
	if err != nil {
		return nil, err
	}
	coreF := topology.TierLinks(topology.Spine, topology.Leaf)
	res := &Result{
		Name:   "Fig1: broadcast bandwidth, 2-spine/2-leaf, 8 GPUs",
		XLabel: "metric(total=0,core=1)",
		X:      []float64{0, 1},
		Mean: []telemetry.Series{
			{Label: "ring", Y: []float64{float64(collective.SumLoads(g, ring, nil)), float64(collective.SumLoads(g, ring, coreF))}},
			{Label: "tree", Y: []float64{float64(collective.SumLoads(g, tree, nil)), float64(collective.SumLoads(g, tree, coreF))}},
			{Label: "optimal", Y: []float64{float64(collective.SumLoads(g, opt, nil)), float64(collective.SumLoads(g, opt, coreF))}},
		},
	}
	ringOver := float64(collective.SumLoads(g, ring, nil))/float64(collective.SumLoads(g, opt, nil)) - 1
	treeOver := float64(collective.SumLoads(g, tree, nil))/float64(collective.SumLoads(g, opt, nil)) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("ring overshoots optimal total bytes by %.0f%%, tree by %.0f%% (paper: 70-80%% on core links)", ringOver*100, treeOver*100))
	return res, nil
}

// Fig3 reproduces Figure 3: RSBF's per-packet Bloom-filter header in
// bytes versus fat-tree degree k ∈ {4..64} for FPR ∈ {1,5,10,15,20}%.
func Fig3(o Options) (*Result, error) {
	ks := []float64{4, 8, 16, 32, 64}
	fprs := []float64{0.01, 0.05, 0.10, 0.15, 0.20}
	res := &Result{Name: "Fig3: RSBF per-packet overhead (B)", XLabel: "k", X: ks}
	for _, p := range fprs {
		s := telemetry.Series{Label: fmt.Sprintf("FPR=%.0f%%", p*100), X: ks}
		for _, k := range ks {
			s.Y = append(s.Y, float64(bloom.PerPacketOverheadBytes(int(k), p)))
		}
		res.Mean = append(res.Mean, s)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("MTU=%d B; header exceeds one MTU past k=32 even at FPR 20%% (got %d B at k=64)",
			bloom.MTU, bloom.PerPacketOverheadBytes(64, 0.20)))
	return res, nil
}

// fig45Sizes are the paper's message-size sweep points (MB).
var fig45Sizes = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig4 reproduces Figure 4: Orca's collective completion time with and
// without the controller's flow-setup overhead, on an 8-ary fat-tree with
// 1024 GPUs (128 hosts × 8 GPUs), across message sizes. "Without
// controller overhead" runs the identical Orca data path (multicast to
// rack agents plus host-assisted fan-out) with a zero-delay controller,
// isolating exactly the setup penalty the figure plots.
func Fig4(o Options) (*Result, error) {
	o = o.normalized()
	sizes := fig45Sizes
	if o.Samples <= Quick().Samples { // quick mode: subsample the sweep
		sizes = []float64{2, 32, 512}
	}
	build := func() *topology.Graph { return topology.FatTree(8) }
	gen := func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error) {
		spec := workload.Spec{GPUs: 1024, Bytes: int64(x) << 20}
		return cl.Generate(o.Samples, o.Load, 100e9, spec, rng)
	}
	res, err := sweepCCT("Fig4: Orca controller overhead (1024 GPUs)", "msgMB", sizes,
		[]collective.Scheme{collective.Orca, collective.OrcaInstant},
		build, false, 8, gen,
		func(x float64) netsim.Config { return o.configFor(int64(x)<<20, o.Seed) },
		o)
	if err != nil {
		return nil, err
	}
	res.Mean[0].Label = "orca(with controller)"
	res.Mean[1].Label = "without controller"
	res.P99[0].Label = "orca(with controller)/p99"
	res.P99[1].Label = "without controller/p99"
	return res, nil
}

// Fig5 reproduces Figure 5: mean and p99 CCT versus message size for all
// six schemes — 8-ary fat-tree, 512-GPU broadcasts, Poisson arrivals at
// 30% offered load.
func Fig5(o Options) (*Result, error) {
	o = o.normalized()
	sizes := fig45Sizes
	if o.Samples <= Quick().Samples {
		sizes = []float64{2, 32, 512}
	}
	build := func() *topology.Graph { return topology.FatTree(8) }
	gen := func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error) {
		spec := workload.Spec{GPUs: 512, Bytes: int64(x) << 20}
		return cl.Generate(o.Samples, o.Load, 100e9, spec, rng)
	}
	return sweepCCT("Fig5: CCT vs message size (512 GPUs, 30% load)", "msgMB", sizes,
		collective.AllSchemes, build, true, 8, gen,
		func(x float64) netsim.Config { return o.configFor(int64(x)<<20, o.Seed) },
		o)
}

// Fig6 reproduces Figure 6: mean and p99 CCT versus broadcast scale
// (32–1024 GPUs) with a fixed 64 MB message.
func Fig6(o Options) (*Result, error) {
	o = o.normalized()
	scales := []float64{32, 64, 128, 256, 512, 1024}
	if o.Samples <= Quick().Samples {
		scales = []float64{32, 256, 1024}
	}
	const msg = int64(64) << 20
	build := func() *topology.Graph { return topology.FatTree(8) }
	gen := func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error) {
		spec := workload.Spec{GPUs: int(x), Bytes: msg}
		return cl.Generate(o.Samples, o.Load, 100e9, spec, rng)
	}
	return sweepCCT("Fig6: CCT vs scale (64 MB)", "gpus", scales,
		collective.AllSchemes, build, true, 8, gen,
		func(x float64) netsim.Config { return o.configFor(msg, o.Seed) },
		o)
}

// Fig7 reproduces Figure 7: robustness to failures. A two-tier leaf–spine
// with 16 spines, 48 leaves, two servers per leaf and eight GPUs per
// server; a 64-GPU broadcast of 8 MB repeated while 1–10% of spine–leaf
// links are randomly failed. Schemes: Ring, Binary Tree, and PEEL (whose
// tree construction is the §2.3 layer-peeling greedy here).
func Fig7(o Options) (*Result, error) {
	o = o.normalized()
	failPcts := []float64{1, 2, 4, 8, 10}
	if o.Samples <= Quick().Samples {
		failPcts = []float64{1, 10}
	}
	const msg = int64(8) << 20
	build := func() *topology.Graph { return topology.LeafSpine(16, 48, 2) }
	spineLeaf := topology.TierLinks(topology.Spine, topology.Leaf)

	schemes := []collective.Scheme{collective.BinTree, collective.Ring, collective.PEEL}
	// Per-point builders and workloads are prepared serially; the
	// (pct, scheme) grid then fans out over o.Workers.
	builds := make([]func() *topology.Graph, len(failPcts))
	workloads := make([][]*workload.Collective, len(failPcts))
	for pi, pct := range failPcts {
		builds[pi] = func() *topology.Graph {
			g := build()
			rng := rand.New(rand.NewSource(o.Seed + int64(pct)))
			g.FailRandomFraction(pct/100, spineLeaf, rng)
			return g
		}
		cl := workload.NewCluster(builds[pi](), 8)
		rng := rand.New(rand.NewSource(o.Seed + 100 + int64(pct)))
		cols, err := cl.Generate(o.Samples, o.Load, 100e9, workload.Spec{GPUs: 64, Bytes: msg}, rng)
		if err != nil {
			return nil, err
		}
		workloads[pi] = cols
	}
	cfg := o.configFor(msg, o.Seed)
	res := &Result{Name: "Fig7: CCT vs failure rate (64-GPU, 8 MB, leaf-spine)", XLabel: "fail%", X: failPcts}
	return grid(res, schemeLabels(schemes), o, func(pi, si int) trial {
		return trial{build: builds[pi], cfg: cfg, scheme: schemes[si], cols: workloads[pi]}
	})
}
