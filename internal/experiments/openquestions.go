package experiments

import (
	"fmt"
	"math/rand"

	"peel/internal/collective"
	"peel/internal/core"
	"peel/internal/routing"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// FragmentationStudy explores §3.4's "resource fragmentation" question:
// as placements become less compact, how do PEEL's packet counts and
// redundant transmissions grow, and how much does a per-pod packet budget
// (adaptive prefix packing) trade between upward duplication and
// over-coverage?
//
// For each fragmentation level f, groups of 256 GPUs are placed with
// holes (each host skipped with probability f) and planned three ways:
// exact covers, budget-2 covers, and budget-1 covers. Reported series:
// packets per group, over-covered hosts per group, and redundant bytes
// fraction (over-covered hosts ÷ covered hosts).
func FragmentationStudy(o Options) (*Result, error) {
	o = o.normalized()
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	g := topology.FatTree(8)
	pl, err := core.NewPlanner(g)
	if err != nil {
		return nil, err
	}
	cl := workload.NewCluster(g, 8)
	trials := o.Samples * 3

	variants := []struct {
		label string
		opts  core.PlanOptions
	}{
		{"exact", core.PlanOptions{}},
		{"budget2", core.PlanOptions{PacketBudget: 2}},
		{"budget1", core.PlanOptions{PacketBudget: 1}},
	}
	res := &Result{Name: "Fragmentation (§3.4): packets & redundancy vs placement holes", XLabel: "fragmentation", X: fracs}
	var pktSeries, overSeries, redSeries []telemetry.Series
	for _, v := range variants {
		pktSeries = append(pktSeries, telemetry.Series{Label: v.label + "/packets", X: fracs})
		overSeries = append(overSeries, telemetry.Series{Label: v.label + "/overhosts", X: fracs})
		redSeries = append(redSeries, telemetry.Series{Label: v.label + "/redundant-frac", X: fracs})
	}
	for _, f := range fracs {
		sums := make([]struct{ pkts, over, members float64 }, len(variants))
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(o.Seed + int64(f*1000)*100 + int64(trial)))
			hosts, err := cl.Place(workload.Spec{GPUs: 256, Fragmentation: f}, rng)
			if err != nil {
				return nil, err
			}
			src, members := hosts[0], hosts[1:]
			for vi, v := range variants {
				plan, err := pl.PlanGroupOpts(src, members, v.opts)
				if err != nil {
					return nil, err
				}
				sums[vi].pkts += float64(len(plan.Packets))
				sums[vi].over += float64(plan.TotalOverHosts())
				sums[vi].members += float64(len(plan.Members))
			}
		}
		for vi := range variants {
			n := float64(trials)
			pktSeries[vi].Y = append(pktSeries[vi].Y, sums[vi].pkts/n)
			overSeries[vi].Y = append(overSeries[vi].Y, sums[vi].over/n)
			redSeries[vi].Y = append(redSeries[vi].Y, sums[vi].over/(sums[vi].over+sums[vi].members))
		}
	}
	res.Mean = append(res.Mean, pktSeries...)
	res.Mean = append(res.Mean, overSeries...)
	res.Mean = append(res.Mean, redSeries...)
	res.Notes = append(res.Notes,
		"exact covers pay packets (upward copies) as fragmentation grows; budgets cap packets but over-cover hosts",
		"the paper's §3.4 calls this the adaptive-prefix-packing trade-off")
	return res, nil
}

// DeploymentStudy explores §3.4's "incremental deployment" question:
// which programmable tier buys the most? It runs a fragmented 256-GPU
// broadcast workload under four deployments:
//
//	static          — plain PEEL (no programmability anywhere)
//	tor-filter      — ToRs filter membership (drop over-covered traffic)
//	prog-cores      — §3.3 two-stage refinement at the core tier
//	tor+cores       — both
//
// and reports mean/p99 CCT and total fabric bytes for each.
func DeploymentStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(96) << 20 // long enough for the controller to matter
	labels := []string{"static", "tor-filter", "prog-cores", "tor+cores"}
	schemes := []collective.Scheme{
		collective.PEEL, collective.PEELToRFilter,
		collective.PEELCores, collective.PEELCoresFiltered,
	}
	build := func() *topology.Graph { return topology.FatTree(8) }
	gWork := build()
	cl := workload.NewCluster(gWork, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	spec := workload.Spec{GPUs: 256, Bytes: msg, Fragmentation: 0.3}
	cols, err := cl.Generate(o.Samples, o.Load, 100e9, spec, rng)
	if err != nil {
		return nil, err
	}
	cfg := o.configFor(msg, o.Seed)

	res := &Result{
		Name:   "Incremental deployment (§3.4): which tier to upgrade (256-GPU, 96 MB, 30% frag)",
		XLabel: "deployment(static=0,tor=1,cores=2,both=3)",
		X:      []float64{0, 1, 2, 3},
	}
	meanS := telemetry.Series{Label: "meanCCT", X: res.X, Y: make([]float64, len(schemes))}
	p99S := telemetry.Series{Label: "p99CCT", X: res.X, Y: make([]float64, len(schemes))}
	bytesS := telemetry.Series{Label: "fabricGB", X: res.X, Y: make([]float64, len(schemes))}
	err = forEachIndex(o.Workers, len(schemes), func(i int) error {
		reps, net, err := trial{build: build, cfg: cfg, scheme: schemes[i], cols: cols, planner: true}.run(o)
		if err != nil {
			return fmt.Errorf("deployment %s: %w", schemes[i], err)
		}
		samples := cctSamples(reps)
		meanS.Y[i] = samples.Mean()
		p99S.Y[i] = samples.P99()
		bytesS.Y[i] = float64(net.TotalBytes()) / 1e9
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Mean = []telemetry.Series{meanS, bytesS}
	res.P99 = []telemetry.Series{p99S}
	res.Notes = append(res.Notes, fmt.Sprintf("deployments: %v", labels))
	return res, nil
}

// MultipathStudy explores §2.3's "multicast vs multipath" open question:
// a single Steiner tree funnels traffic onto one set of core links, while
// load balancers stripe bytes across many paths. It runs a 256-GPU
// 64 MB broadcast against heavy background unicast traffic and compares
// one tree versus striping chunks across 2 and 4 equal-cost tree
// variants (collective.MultiTree*).
func MultipathStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(64) << 20
	// A 2:1 oversubscribed fat-tree: cross-pod core links, not source
	// NICs, are the bottleneck — the regime where striping can matter.
	build := func() *topology.Graph {
		g := topology.FatTree(8)
		g.Oversubscribe(2)
		return g
	}
	gWork := build()
	cl := workload.NewCluster(gWork, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	// Elevated load creates the core-link contention striping is for.
	cols, err := cl.Generate(o.Samples, 0.8, 100e9, workload.Spec{GPUs: 256, Bytes: msg}, rng)
	if err != nil {
		return nil, err
	}
	cfg := o.configFor(msg, o.Seed)
	variants := []struct {
		label  string
		scheme collective.Scheme
	}{
		{"1-tree", collective.MultiTree1},
		{"2-trees", collective.MultiTree2},
		{"4-trees", collective.MultiTree4},
	}
	res := &Result{
		Name:   "Multicast vs multipath (§2.3): chunk striping across tree variants",
		XLabel: "trees",
		X:      []float64{1, 2, 4},
	}
	meanS := telemetry.Series{Label: "meanCCT", X: res.X, Y: make([]float64, len(variants))}
	p99S := telemetry.Series{Label: "p99CCT", X: res.X, Y: make([]float64, len(variants))}
	err = forEachIndex(o.Workers, len(variants), func(i int) error {
		reps, _, err := trial{build: build, cfg: cfg, scheme: variants[i].scheme, cols: cols}.run(o)
		if err != nil {
			return fmt.Errorf("multipath %s: %w", variants[i].label, err)
		}
		samples := cctSamples(reps)
		meanS.Y[i] = samples.Mean()
		p99S.Y[i] = samples.P99()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Mean = []telemetry.Series{meanS}
	res.P99 = []telemetry.Series{p99S}
	res.Notes = append(res.Notes,
		"2:1 oversubscribed core; striping spreads a broadcast's bytes over distinct core links",
		"gains appear when trees, not NICs, are the bottleneck")
	return res, nil
}

// AllGatherStudy extends the evaluation to the other bandwidth-bound
// collective the paper's motivation names: AllGather. Every member holds
// a shard; afterwards all members hold all shards. Compared: the classic
// ring algorithm (aggregate-bandwidth-optimal, latency O(N)), concurrent
// optimal multicast trees, and concurrent PEEL prefix multicasts — across
// gathered sizes, for 64-host groups on the 8-ary fat-tree.
func AllGatherStudy(o Options) (*Result, error) {
	o = o.normalized()
	sizes := []float64{8, 64, 512} // total gathered MB
	if o.Samples <= Quick().Samples {
		sizes = []float64{8, 64}
	}
	build := func() *topology.Graph { return topology.FatTree(8) }
	labels := []string{"ring", "optimal-trees", "peel", "striped-peel"}
	schemes := []collective.Scheme{collective.Ring, collective.Optimal, collective.PEEL, collective.StripedPEEL}
	workloads := make([][]*workload.Collective, len(sizes))
	for mi, mb := range sizes {
		msg := int64(mb) << 20
		clW := workload.NewCluster(build(), 8)
		rng := rand.New(rand.NewSource(o.Seed + int64(mb)))
		cols, err := clW.Generate(o.Samples, o.Load, 100e9, workload.Spec{GPUs: 512, Bytes: msg}, rng)
		if err != nil {
			return nil, err
		}
		workloads[mi] = cols
	}
	res := &Result{Name: "AllGather: ring vs concurrent multicast (512 GPUs)", XLabel: "totalMB", X: sizes,
		Notes: []string{"ring allgather is aggregate-bandwidth-optimal but serializes N-1 hops; multicast shards cut the latency chain"}}
	return grid(res, labels, o, func(mi, vi int) trial {
		return trial{build: build, cfg: o.configFor(int64(sizes[mi])<<20, o.Seed), scheme: schemes[vi],
			cols: workloads[mi], planner: true, allGather: true}
	})
}

// LossStudy exercises the reliability story the paper inherits from RDMA
// (§1 fn.1): selective-repeat retransmission under link-level frame loss.
// A 256-GPU broadcast of 32 MB runs at loss rates from 0 to 1%, comparing
// PEEL multicast against the unicast Ring: ring relays re-detect each
// loss hop by hop, while the multicast tree repairs end to end.
func LossStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(32) << 20
	lossRates := []float64{0, 0.001, 0.005, 0.01}
	build := func() *topology.Graph { return topology.FatTree(8) }
	gWork := build()
	cl := workload.NewCluster(gWork, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	// A deliberately mild offered load: loss-induced repair delays inflate
	// service times, and an operating point near saturation would measure
	// queueing collapse rather than recovery behaviour.
	cols, err := cl.Generate(o.Samples, 0.1, 100e9, workload.Spec{GPUs: 256, Bytes: msg}, rng)
	if err != nil {
		return nil, err
	}
	schemes := []collective.Scheme{collective.PEEL, collective.Ring}
	res := &Result{Name: "Loss recovery: CCT vs frame-loss rate (256-GPU, 32 MB)", XLabel: "loss", X: lossRates,
		Notes: []string{"selective-repeat repair per flow; repairs traverse the original tree/path"}}
	return grid(res, schemeLabels(schemes), o, func(li, si int) trial {
		cfg := o.configFor(msg, o.Seed)
		cfg.LossRate = lossRates[li]
		return trial{build: build, cfg: cfg, scheme: schemes[si], cols: cols, planner: true}
	})
}

// RailStudy explores the rail-optimized topology the paper's §2.1 defers
// to future work: on a rail fabric (one NIC per GPU, NIC r of every
// server on rail switch r), a broadcast whose members all sit on the
// source's rail is covered by a single rail switch — zero spine
// crossings — while a rail-oblivious member selection pays the full
// leaf-spine tree. Reported: tree cost and simulated CCT for both
// selections across group sizes, with intra-server NVLink finishing the
// fan-out in both cases.
func RailStudy(o Options) (*Result, error) {
	o = o.normalized()
	const rails, servers, spines = 8, 32, 4
	const msg = int64(64) << 20
	sizes := []float64{8, 16, 32}
	build := func() *topology.Graph { return topology.RailOptimized(rails, servers, spines) }

	res := &Result{Name: "Rail-optimized fabrics (§2.1 future work): aligned vs oblivious groups", XLabel: "servers", X: sizes}
	alignedCost := telemetry.Series{Label: "aligned/tree-links", X: sizes}
	obliviousCost := telemetry.Series{Label: "oblivious/tree-links", X: sizes}
	alignedCCT := telemetry.Series{Label: "aligned/meanCCT", X: sizes}
	obliviousCCT := telemetry.Series{Label: "oblivious/meanCCT", X: sizes}

	for _, n := range sizes {
		group := int(n)
		gA := build()
		// Aligned: rail 0's NIC on each of the first `group` servers.
		var aligned, oblivious []topology.NodeID
		for s := 0; s < group; s++ {
			aligned = append(aligned, gA.HostByRail(0, s, rails, servers, spines))
			oblivious = append(oblivious, gA.HostByRail(s%rails, s, rails, servers, spines))
		}
		ta, err := steiner.SymmetricOptimal(gA, aligned[0], aligned[1:])
		if err != nil {
			return nil, err
		}
		to, err := steiner.SymmetricOptimal(gA, oblivious[0], oblivious[1:])
		if err != nil {
			return nil, err
		}
		alignedCost.Y = append(alignedCost.Y, float64(ta.Cost()))
		obliviousCost.Y = append(obliviousCost.Y, float64(to.Cost()))
		// Aligned trees must not touch a spine.
		for _, m := range ta.Members {
			if gA.Node(m).Kind == topology.Spine {
				return nil, fmt.Errorf("rail-aligned tree crossed a spine")
			}
		}

		cct := func(members []topology.NodeID) (float64, error) {
			c := &workload.Collective{Bytes: msg, GPUs: group * 8, Hosts: members}
			reps, _, err := trial{build: build, cfg: o.configFor(msg, o.Seed), scheme: collective.Optimal,
				cols: []*workload.Collective{c}}.run(o)
			if err != nil {
				return 0, err
			}
			return reps[0].CCT.Seconds(), nil
		}
		ca, err := cct(aligned)
		if err != nil {
			return nil, err
		}
		co, err := cct(oblivious)
		if err != nil {
			return nil, err
		}
		alignedCCT.Y = append(alignedCCT.Y, ca)
		obliviousCCT.Y = append(obliviousCCT.Y, co)
	}
	res.Mean = []telemetry.Series{alignedCost, obliviousCost, alignedCCT, obliviousCCT}
	res.Notes = append(res.Notes,
		"aligned groups stay on one rail switch (no spine crossings); NVLink finishes intra-server fan-out either way")
	return res, nil
}

// IsolationStudy addresses the third item of §1's deployability
// checklist (loss recovery, flow isolation, telemetry): how much does a
// tenant's broadcast traffic perturb a bystander's unicast flows? A
// victim tenant runs closed-loop 8 MB transfers between fixed host pairs
// while an aggressor tenant broadcasts 64 MB to 256 GPUs under each
// scheme; reported is the victim's mean/p99 flow completion time.
// Fewer aggressor bytes (multicast) should mean less collateral damage.
func IsolationStudy(o Options) (*Result, error) {
	o = o.normalized()
	schemes := []struct {
		label  string
		scheme collective.Scheme
	}{
		{"idle", ""}, // no aggressor: the victim baseline
		{"peel", collective.PEEL},
		{"optimal", collective.Optimal},
		{"ring", collective.Ring},
		{"dtree", collective.DblBinTree},
	}
	res := &Result{
		Name:   "Flow isolation (§1): bystander FCT vs aggressor scheme",
		XLabel: "aggressor(idle=0,peel=1,optimal=2,ring=3,dtree=4)",
		X:      []float64{0, 1, 2, 3, 4},
	}
	meanS := telemetry.Series{Label: "victimMeanFCT", X: res.X}
	p99S := telemetry.Series{Label: "victimP99FCT", X: res.X}

	for _, v := range schemes {
		victim, err := isolationRun(o, v.scheme)
		if err != nil {
			return nil, fmt.Errorf("isolation %s: %w", v.label, err)
		}
		meanS.Y = append(meanS.Y, victim.Mean())
		p99S.Y = append(p99S.Y, victim.P99())
	}
	res.Mean = []telemetry.Series{meanS}
	res.P99 = []telemetry.Series{p99S}
	res.Notes = append(res.Notes,
		"victim: 16 closed-loop 8 MB unicast pairs; aggressor: 256-GPU 64 MB broadcasts at 30% load",
		"multicast aggressors inject fewer bytes, so bystander flows suffer less")
	return res, nil
}

// isolationRun simulates the victim tenant beside one aggressor scheme
// ("" for none) and returns the victim's flow completion times. The
// victim's closed-loop flows are the trial's arm hook; the aggressor's
// broadcasts are the trial's collectives.
func isolationRun(o Options, aggressor collective.Scheme) (*telemetry.Samples, error) {
	const victimMsg = int64(8) << 20
	const aggMsg = int64(64) << 20
	const pairs, transfers = 16, 12
	build := func() *topology.Graph { return topology.FatTree(8) }
	hosts := build().Hosts()
	rng := rand.New(rand.NewSource(o.Seed + 31))
	perm := rng.Perm(len(hosts))
	// Aggressor tenant: Poisson broadcasts at 30% load (none for the idle
	// baseline), drawn after the victim pairs from the same stream.
	var cols []*workload.Collective
	if aggressor != "" {
		var err error
		cols, err = workload.NewCluster(build(), 8).Generate(o.Samples/2+2, o.Load, 100e9,
			workload.Spec{GPUs: 256, Bytes: aggMsg}, rng)
		if err != nil {
			return nil, err
		}
	}
	cfg := o.configFor(aggMsg, o.Seed)

	// Victim tenant: 16 closed-loop pairs, 12 transfers each.
	victim := &telemetry.Samples{}
	arm := func(r *collective.Runner) error {
		net, eng := r.Net, r.Net.Engine
		for p := 0; p < pairs; p++ {
			src, dst := hosts[perm[2*p]], hosts[perm[2*p+1]]
			var issue func(k int)
			issue = func(k int) {
				if k >= transfers {
					return
				}
				path := routing.ECMPPath(net.G, src, dst, uint64(o.Seed)+uint64(p*100+k))
				fl, err := net.NewUnicastFlow(path, cfg.DCQCN)
				if err != nil {
					return
				}
				start := eng.Now()
				fl.OnChunk(func(topology.NodeID, int) {
					victim.AddTime(eng.Now() - start)
					issue(k + 1)
				})
				fl.Send(0, victimMsg)
			}
			issue(0)
		}
		return nil
	}
	t := trial{build: build, cfg: cfg, scheme: aggressor, cols: cols, planner: true, arm: arm}
	if _, _, err := t.run(o); err != nil {
		return nil, err
	}
	if victim.N() != pairs*transfers {
		return nil, fmt.Errorf("victim finished %d/%d transfers", victim.N(), pairs*transfers)
	}
	return victim, nil
}
