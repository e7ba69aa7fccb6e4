package experiments

import (
	"fmt"
	"math/rand"

	"peel/internal/chaos"
	"peel/internal/collective"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// ChaosStudy measures graceful degradation under mid-flight failures —
// the scenario the paper's §4 evaluation leaves out (Fig. 7 degrades the
// fabric *before* planning). A 64-GPU broadcast of 32 MB runs on a k=4
// fat-tree; once the transfer is ~30% done, a fraction of the
// switch-to-switch links fails simultaneously; the links heal 1 ms later.
// The collective runner's watchdog detects the stall and re-plans delivery
// on the degraded fabric (recovery.go). Compared schemes: PEEL (multicast
// trees, repaired by re-peeling), Ring (unicast relays around the
// failure), and Orca (controller-installed multicast, repair pays the
// controller again).
//
// Reported per failure fraction: mean/p99 CCT, mean delivered-byte
// downtime, and mean repairs per collective; notes aggregate stalls,
// unicast fallbacks, and abandoned receivers.
func ChaosStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(32) << 20
	const mttr = sim.Millisecond
	fracs := []float64{0, 0.05, 0.10, 0.20}
	if o.ChaosFrac > 0 {
		fracs = []float64{o.ChaosFrac}
	}
	build := func() *topology.Graph { return topology.FatTree(4) }
	// StripedPEEL rides along as the resilience hypothesis: with chunks
	// striped over link-disjoint trees, a failure stalls one stripe while
	// the rest keep delivering, and repair touches only the dead tree.
	schemes := []collective.Scheme{collective.PEEL, collective.Ring, collective.Orca, collective.StripedPEEL}

	res := &Result{Name: "Chaos: CCT and recovery vs mid-flight failure fraction (64-GPU, 32 MB)",
		XLabel: "failFrac", X: fracs}
	down := make([]telemetry.Series, len(schemes))
	repairs := make([]telemetry.Series, len(schemes))
	for si, s := range schemes {
		res.Mean = append(res.Mean, telemetry.Series{Label: string(s), X: fracs})
		res.P99 = append(res.P99, telemetry.Series{Label: string(s) + "/p99", X: fracs})
		down[si] = telemetry.Series{Label: string(s) + "/downtime", X: fracs}
		repairs[si] = telemetry.Series{Label: string(s) + "/repairs", X: fracs}
	}

	gWork := build()
	clWork := workload.NewCluster(gWork, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	cols, err := clWork.Generate(o.Samples, 0.1, 100e9, workload.Spec{GPUs: 64, Bytes: msg}, rng)
	if err != nil {
		return nil, err
	}

	var totalStalls, totalFallbacks, totalAbandoned int
	for _, frac := range fracs {
		for si, s := range schemes {
			cct := &telemetry.Samples{}
			var downSum sim.Time
			var repairSum int
			for ci, c := range cols {
				cfg := o.configFor(msg, o.Seed+int64(ci))
				// Clean pass: the failure is scheduled relative to this
				// collective's own failure-free CCT.
				clean, err := runChaosOne(build, s, c, cfg, nil, o)
				if err != nil {
					return nil, fmt.Errorf("chaos clean %s: %w", s, err)
				}
				if frac == 0 {
					cct.AddTime(clean.CCT)
					continue
				}
				failAt := clean.CCT * 3 / 10
				chaosRNG := cfg.RNG(netsim.SaltChaos + int64(si)*1000 + int64(ci))
				sched, _ := chaos.FailFractionAt(build(), topology.SwitchLinks, frac,
					failAt, failAt+mttr, chaosRNG)
				rep, err := runChaosOne(build, s, c, cfg, sched, o)
				if err != nil {
					return nil, fmt.Errorf("chaos frac=%v %s: %w", frac, s, err)
				}
				cct.AddTime(rep.CCT)
				downSum += rep.Recovery.Downtime
				repairSum += rep.Recovery.Repairs
				totalStalls += rep.Recovery.Stalls
				totalFallbacks += rep.Recovery.UnicastFallbacks
				totalAbandoned += rep.Recovery.Abandoned
			}
			res.Mean[si].Y = append(res.Mean[si].Y, cct.Mean())
			res.P99[si].Y = append(res.P99[si].Y, cct.P99())
			down[si].Y = append(down[si].Y, sim.Time(int64(downSum)/int64(len(cols))).Seconds())
			repairs[si].Y = append(repairs[si].Y, float64(repairSum)/float64(len(cols)))
		}
	}
	res.Mean = append(res.Mean, down...)
	res.Mean = append(res.Mean, repairs...)
	res.Notes = append(res.Notes,
		"failures hit switch-switch links at 30% of the clean CCT; links heal after 1 ms (MTTR)",
		"downtime series is mean no-progress time in seconds; repairs is mean repair trees installed",
		fmt.Sprintf("totals across all failed runs: stalls=%d unicastFallbacks=%d abandoned=%d",
			totalStalls, totalFallbacks, totalAbandoned))
	return res, nil
}

// runChaosOne simulates a single broadcast on a fresh fabric, optionally
// arming a chaos schedule, and returns the runner's recovery report.
func runChaosOne(build func() *topology.Graph, scheme collective.Scheme, c *workload.Collective,
	cfg netsim.Config, sched *chaos.Schedule, o Options) (collective.Report, error) {

	reps, _, err := trial{build: build, cfg: cfg, scheme: scheme, cols: alone(c),
		planner: true, watchdog: 100 * sim.Microsecond,
		arm: func(r *collective.Runner) error { return chaos.NewInjector(r.Net.G, r.Net.Engine).Arm(sched) },
	}.run(o)
	if err != nil {
		return collective.Report{}, err
	}
	return reps[0], nil
}
