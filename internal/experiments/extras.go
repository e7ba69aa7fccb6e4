package experiments

import (
	"fmt"
	"math/rand"

	"peel/internal/collective"
	"peel/internal/core"
	"peel/internal/netsim"
	"peel/internal/routing"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// StateTable reproduces the §1/§3.2 switch-state headline: PEEL's k−1
// pre-installed rules versus naive per-group entries, and the per-packet
// header size, across fat-tree degrees.
func StateTable(o Options) (*Result, error) {
	ks := []float64{8, 16, 32, 64, 128}
	res := &Result{Name: "State: PEEL rules vs naive entries vs header", XLabel: "k", X: ks}
	rules := telemetry.Series{Label: "peel-rules", X: ks}
	naive := telemetry.Series{Label: "naive-entries", X: ks}
	hdr := telemetry.Series{Label: "header-B", X: ks}
	hostsS := telemetry.Series{Label: "hosts", X: ks}
	for _, k := range ks {
		s := core.StateFor(int(k))
		rules.Y = append(rules.Y, float64(s.PEELRules))
		naive.Y = append(naive.Y, s.NaiveEntries)
		hdr.Y = append(hdr.Y, float64(s.HeaderBytes))
		hostsS.Y = append(hostsS.Y, float64(s.Hosts))
	}
	res.Mean = []telemetry.Series{hostsS, rules, naive, hdr}
	s64 := core.StateFor(64)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"k=64: %d hosts, %d rules (paper: 63) vs %.2g naive entries (paper: >4e9), header %d B (<8 B)",
		s64.Hosts, s64.PEELRules, s64.NaiveEntries, s64.HeaderBytes))
	return res, nil
}

// GuardAblation reproduces the §4 congestion-control ablation: PEEL's
// sender-side 50 µs guard timer versus reacting to every CNP (the paper
// reports a 12× p99-CCT reduction for a 64-GPU/32 MB broadcast).
//
// CNP implosion needs per-MTU-scale marking to sustain itself, so this
// experiment runs near-MTU frames with the paper's untranslated DCQCN
// thresholds (5 kB/200 kB/1%) and 256-GPU groups for receiver fan-in,
// under 60% offered load.
func GuardAblation(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(32) << 20
	build := func() *topology.Graph { return topology.FatTree(8) }
	run := func(guard bool) (*telemetry.Samples, uint64, uint64, error) {
		gWork := build()
		cl := workload.NewCluster(gWork, 8)
		rng := rand.New(rand.NewSource(o.Seed))
		cols, err := cl.Generate(o.Samples, 0.6, 100e9, workload.Spec{GPUs: 256, Bytes: msg}, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		cfg := netsim.DefaultConfig()
		cfg.FrameBytes = 16 << 10 // near-MTU granularity; paper thresholds
		cfg.Seed = o.Seed
		reps, net, err := trial{build: build, cfg: cfg, scheme: peelVariantScheme(guard), cols: cols, planner: true}.run(o)
		if err != nil {
			return nil, 0, 0, err
		}
		var reacts, ignored uint64
		for _, fl := range net.Flows() {
			reacts += fl.Sender().Reactions()
			ignored += fl.Sender().Ignored()
		}
		return cctSamples(reps), reacts, ignored, nil
	}
	with, wReacts, wIgnored, err := run(true)
	if err != nil {
		return nil, err
	}
	without, woReacts, _, err := run(false)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "Guard-timer ablation (256-GPU, 32 MB, near-MTU frames)",
		XLabel: "variant(with=0,without=1)",
		X:      []float64{0, 1},
		Mean:   []telemetry.Series{{Label: "meanCCT", Y: []float64{with.Mean(), without.Mean()}}},
		P99:    []telemetry.Series{{Label: "p99CCT", Y: []float64{with.P99(), without.P99()}}},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("p99 without/with = %.1fx, mean %.1fx (paper: 12x p99 at 64-GPU)",
			without.P99()/with.P99(), without.Mean()/with.Mean()),
		fmt.Sprintf("rate cuts: %d guarded (%d CNPs suppressed) vs %d unguarded — the CNP implosion",
			wReacts, wIgnored, woReacts))
	return res, nil
}

// peelVariantScheme maps the guard flag onto the collective schemes: the
// guarded variant is PEEL itself; the unguarded one is PEELNoGuard.
func peelVariantScheme(guard bool) collective.Scheme {
	if guard {
		return collective.PEEL
	}
	return collective.PEELNoGuard
}

// ApproxStudy quantifies §2.3's approximation quality: the layer-peeling
// tree versus the exact Steiner optimum (small instances) and the
// max(F,|D|) lower bound, over random failure patterns — the evidence
// behind "within 1.4% of the Steiner optimum".
func ApproxStudy(o Options) (*Result, error) {
	o = o.normalized()
	failPcts := []float64{1, 5, 10, 15, 20}
	trials := o.Samples * 4
	res := &Result{Name: "Approximation: greedy vs exact vs lower bound", XLabel: "fail%", X: failPcts}
	vsExact := telemetry.Series{Label: "greedy/exact(mean)", X: failPcts}
	vsExactMax := telemetry.Series{Label: "greedy/exact(max)", X: failPcts}
	vsLB := telemetry.Series{Label: "greedy/lowerbound(mean)", X: failPcts}
	for _, pct := range failPcts {
		var sumE, maxE, sumLB float64
		n := 0
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(o.Seed + int64(pct)*1000 + int64(trial)))
			g := topology.LeafSpine(8, 12, 2)
			g.FailRandomFraction(pct/100, topology.TierLinks(topology.Spine, topology.Leaf), rng)
			hosts := g.Hosts()
			rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
			src, dests := hosts[0], hosts[1:9]
			if !allReachable(g, src, dests) {
				continue
			}
			tr, _, err := steiner.LayerPeeling(g, src, dests)
			if err != nil {
				continue
			}
			exact, err := steiner.ExactSmall(g, src, dests)
			if err != nil {
				continue
			}
			lb, err := steiner.LowerBound(g, src, dests)
			if err != nil {
				continue
			}
			r := float64(tr.Cost()) / float64(exact)
			sumE += r
			if r > maxE {
				maxE = r
			}
			sumLB += float64(tr.Cost()) / float64(lb)
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("approx study: no feasible trials at %v%%", pct)
		}
		vsExact.Y = append(vsExact.Y, sumE/float64(n))
		vsExactMax.Y = append(vsExactMax.Y, maxE)
		vsLB.Y = append(vsLB.Y, sumLB/float64(n))
	}
	res.Mean = []telemetry.Series{vsExact, vsExactMax, vsLB}
	res.Notes = append(res.Notes, "paper's headline: greedy within 1.4% of Steiner optimum on its fabric")
	return res, nil
}

// BandwidthStudy reproduces the introduction's "23% less aggregate
// bandwidth than unicast rings" headline: total fabric bytes for one
// 512-GPU broadcast under Ring versus PEEL.
func BandwidthStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(8) << 20
	build := func() *topology.Graph { return topology.FatTree(8) }
	gWork := build()
	cl := workload.NewCluster(gWork, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	cols, err := cl.Generate(1, o.Load, 100e9, workload.Spec{GPUs: 512, Bytes: msg}, rng)
	if err != nil {
		return nil, err
	}
	cfg := o.configFor(msg, o.Seed)
	schemes := []collective.Scheme{collective.Ring, collective.PEEL, collective.Optimal}
	totals := make([]float64, len(schemes))
	err = forEachIndex(o.Workers, len(schemes), func(i int) error {
		_, net, err := trial{build: build, cfg: cfg, scheme: schemes[i], cols: cols, planner: true}.run(o)
		if err != nil {
			return err
		}
		totals[i] = float64(net.TotalBytes())
		return nil
	})
	if err != nil {
		return nil, err
	}
	bytesOf := map[collective.Scheme]float64{}
	for i, s := range schemes {
		bytesOf[s] = totals[i]
	}
	res := &Result{
		Name:   "Aggregate bandwidth: one 512-GPU broadcast",
		XLabel: "scheme(ring=0,peel=1,optimal=2)",
		X:      []float64{0, 1, 2},
		Mean: []telemetry.Series{{Label: "fabricBytes", Y: []float64{
			bytesOf[collective.Ring], bytesOf[collective.PEEL], bytesOf[collective.Optimal]}}},
	}
	saving := 1 - bytesOf[collective.PEEL]/bytesOf[collective.Ring]
	res.Notes = append(res.Notes, fmt.Sprintf("PEEL uses %.0f%% less aggregate bandwidth than Ring (paper: 23%%)", saving*100))
	return res, nil
}

func allReachable(g *topology.Graph, src topology.NodeID, dests []topology.NodeID) bool {
	d := routing.BFS(g, src)
	for _, dst := range dests {
		if !d.Reachable(dst) {
			return false
		}
	}
	return true
}
