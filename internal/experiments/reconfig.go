package experiments

import (
	"fmt"
	"math/rand"

	"peel/internal/collective"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/topology/fabric"
	"peel/internal/workload"
)

// The OCS fabric every reconfiguration run uses: 4 spines, 8 leaves with
// 4 hosts each (32 hosts), 3 of 4 candidate circuits mapped per leaf.
// Swapping one circuit per leaf per epoch always leaves two mapped
// circuits that are neither removed nor retraining, so the fabric stays
// connected straight through every dark window.
const (
	ocsSpines    = 4
	ocsLeaves    = 8
	ocsHosts     = 4
	ocsLive      = 3
	ocsSwap      = 1
	ocsDark      = 50 * sim.Microsecond
	reconfigGPUs = 128
)

func newReconfigOCS() *fabric.OCS {
	return fabric.NewOCS(ocsSpines, ocsLeaves, ocsHosts, ocsLive)
}

// ReconfigStudy measures CCT across scheduled OCS reconfiguration epochs,
// A/B-ing planned against unplanned invalidation (§3's control-plane
// story applied to time-varying fabrics; MORS, arXiv 2401.14173). Each
// collective first runs failure-free to calibrate its clean CCT; then the
// same broadcast reruns with n epochs spread across that window, every
// epoch swapping one circuit per leaf. The planned arm announces epochs
// (watchdog treats dark windows as planned quiet, retraining circuits
// defer frames and drain); the unplanned arm lands each epoch as bare
// failures, with the installed circuits dead until retraining ends —
// delivery recovers only through the timeout-driven repair path.
//
// Reported per epoch count: mean/p99 CCT and mean repairs per collective
// for each scheme × {planned, unplanned}. The acceptance claim is
// directional: planned never loses to unplanned on the same draw.
func ReconfigStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(32) << 20
	epochsX := []float64{1, 2, 4}
	schemes := []collective.Scheme{collective.PEEL, collective.Ring, collective.StripedPEEL2}
	modes := []string{"planned", "unplanned"}

	// Workload drawn once on a throwaway instance; NewOCS is deterministic,
	// so host NodeIDs match every rebuilt fabric.
	clWork := workload.NewCluster(newReconfigOCS().G, 8)
	rng := rand.New(rand.NewSource(o.Seed))
	cols, err := clWork.Generate(o.Samples, 0.1, 100e9, workload.Spec{GPUs: reconfigGPUs, Bytes: msg}, rng)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name: fmt.Sprintf("Reconfig: CCT vs epochs crossed (%d-GPU, 32 MB, %d×%d OCS, swap %d/leaf)",
			reconfigGPUs, ocsSpines, ocsLeaves, ocsSwap),
		XLabel: "epochs", X: epochsX,
	}

	// cct[si][mi][xi][ci], repairs likewise; cleanSum[si] for the note.
	type cell struct {
		cct      sim.Time
		repairs  int
		prePeels int
	}
	cells := make([][][][]cell, len(schemes))
	clean := make([][]sim.Time, len(schemes))
	for si := range schemes {
		clean[si] = make([]sim.Time, len(cols))
		cells[si] = make([][][]cell, len(modes))
		for mi := range modes {
			cells[si][mi] = make([][]cell, len(epochsX))
			for xi := range epochsX {
				cells[si][mi][xi] = make([]cell, len(cols))
			}
		}
	}

	// One job per (scheme, collective): the clean calibration run, then
	// every (epochs, mode) rerun. Jobs are independent simulations, so the
	// grid fans out over o.Workers exactly like sweepCCT's.
	err = forEachIndex(o.Workers, len(schemes)*len(cols), func(job int) error {
		si, ci := job/len(cols), job%len(cols)
		s, c := schemes[si], cols[ci]
		cfg := o.configFor(msg, o.Seed+int64(ci))
		cl, _, err := runReconfigOne(s, c, cfg, o, 0, 0, false, 0)
		if err != nil {
			return fmt.Errorf("reconfig clean %s: %w", s, err)
		}
		clean[si][ci] = cl.CCT
		for xi, x := range epochsX {
			n := int(x)
			for mi, mode := range modes {
				rep, fab, err := runReconfigOne(s, c, cfg, o, n, cl.CCT,
					mode == "planned", pointSeed(o.Seed, job*len(epochsX)+xi))
				if err != nil {
					return fmt.Errorf("reconfig %s %s n=%d: %w", s, mode, n, err)
				}
				if fab.EpochsCommitted() != n {
					return fmt.Errorf("reconfig %s %s: %d/%d epochs committed", s, mode, fab.EpochsCommitted(), n)
				}
				cells[si][mi][xi][ci] = cell{cct: rep.CCT,
					repairs: rep.Recovery.Repairs, prePeels: rep.Recovery.PrePeels}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var repairSeries []telemetry.Series
	for si, s := range schemes {
		for mi, mode := range modes {
			label := string(s) + "/" + mode
			mean := telemetry.Series{Label: label, X: epochsX}
			p99 := telemetry.Series{Label: label + "/p99", X: epochsX}
			reps := telemetry.Series{Label: label + "/repairs", X: epochsX}
			pre := telemetry.Series{Label: label + "/prepeels", X: epochsX}
			for xi := range epochsX {
				samp := &telemetry.Samples{}
				repairSum, preSum := 0, 0
				for ci := range cols {
					samp.AddTime(cells[si][mi][xi][ci].cct)
					repairSum += cells[si][mi][xi][ci].repairs
					preSum += cells[si][mi][xi][ci].prePeels
				}
				mean.Y = append(mean.Y, samp.Mean())
				p99.Y = append(p99.Y, samp.P99())
				reps.Y = append(reps.Y, float64(repairSum)/float64(len(cols)))
				pre.Y = append(pre.Y, float64(preSum)/float64(len(cols)))
			}
			res.Mean = append(res.Mean, mean)
			res.P99 = append(res.P99, p99)
			repairSeries = append(repairSeries, reps, pre)
		}
		cs := &telemetry.Samples{}
		for ci := range cols {
			cs.AddTime(clean[si][ci])
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s clean (no-epoch) mean CCT: %.6fs", s, cs.Mean()))
	}
	res.Mean = append(res.Mean, repairSeries...)
	res.Notes = append(res.Notes,
		fmt.Sprintf("epochs spread across each collective's clean CCT; dark window %v, announce lead half a period", ocsDark),
		"planned: announced epochs (watchdog planned-quiet + frame deferral on retraining circuits)",
		"unplanned: same schedule landing as bare failures; installed circuits dead until retraining ends")
	return res, nil
}

// runReconfigOne simulates one broadcast on a fresh OCS fabric with n
// reconfiguration epochs spread across the calibrated clean CCT (n=0:
// the calibration run itself). The OCS graph has K=0, so the runner gets
// no prefix planner — PEEL uses the generic layer-peeling construction.
func runReconfigOne(scheme collective.Scheme, c *workload.Collective, cfg netsim.Config,
	o Options, n int, cleanCCT sim.Time, planned bool, rotSeed int64) (collective.Report, *fabric.Fabric, error) {

	ocs := newReconfigOCS()
	t := trial{build: func() *topology.Graph { return ocs.G }, cfg: cfg, scheme: scheme,
		cols: alone(c), watchdog: 100 * sim.Microsecond}
	var fab *fabric.Fabric
	if n > 0 {
		period := cleanCCT / sim.Time(n+1)
		dark := ocsDark
		if period <= 2*dark {
			dark = period / 4
		}
		fab = fabric.New(ocs.G, ocs.Rotation(n, ocsSwap, period, period, period/2, dark, rotSeed))
		fab.Unannounced = !planned
		t.arm = func(runner *collective.Runner) error {
			var hooks fabric.Hooks
			if planned {
				runner.PlannedDark = fab.DarkOpen
				// The announce hook is the collective-layer planned-invalidation
				// path: re-peel every tree crossing a to-be-removed circuit on a
				// plan view of the post-epoch graph, before the boundary lands.
				hooks.Announce = func(ch fabric.EpochChange) {
					view := ocs.G.Clone()
					for _, id := range ch.Removed {
						view.FailLink(id)
					}
					runner.PrepareEpoch(view, ch.Removed)
				}
			}
			return fab.Arm(runner.Net.Engine, runner.Net, hooks)
		}
	}
	reps, _, err := t.run(o)
	if err != nil {
		return collective.Report{}, nil, err
	}
	return reps[0], fab, nil
}

// HeteroStudy runs the scheme roster unmodified over seeded heterogeneous
// two-layer fat-trees (topology.HeteroFatTree; Solnushkin, arXiv
// 1301.6179): irregular pod sizes, per-ToR host counts, and per-ToR
// oversubscription. K=0 on these graphs, so PEEL exercises the generic
// layer-peeling fallback — the point of the sweep is that nothing in the
// roster assumes the symmetric k-ary Clos. Broadcasts cover every host
// of each instance; X is the instance index, notes record each realized
// shape.
func HeteroStudy(o Options) (*Result, error) {
	o = o.normalized()
	const msg = int64(8) << 20
	const gpusPerHost = 4
	instances := 4
	schemes := []collective.Scheme{collective.PEEL, collective.Ring, collective.Optimal,
		collective.MultiTree2, collective.StripedPEEL2}

	xs := make([]float64, instances)
	for i := range xs {
		xs[i] = float64(i)
	}
	// Each instance's fabric, shape note and workload are prepared
	// serially; the (instance, scheme) grid then fans out over o.Workers.
	builds := make([]func() *topology.Graph, instances)
	workloads := make([][]*workload.Collective, instances)
	cfgs := make([]netsim.Config, instances)
	var notes []string
	for xi := range xs {
		spec := topology.DefaultHeteroSpec(pointSeed(o.Seed, xi))
		builds[xi] = func() *topology.Graph { g, _ := topology.HeteroFatTree(spec); return g }
		g, sh := topology.HeteroFatTree(spec)
		rng := rand.New(rand.NewSource(pointSeed(o.Seed, 1000+xi)))
		cols, err := workload.NewCluster(g, gpusPerHost).Generate(o.Samples, 0.1, 100e9,
			workload.Spec{GPUs: sh.Hosts * gpusPerHost, Bytes: msg}, rng)
		if err != nil {
			return nil, err
		}
		workloads[xi] = cols
		cfgs[xi] = o.configFor(msg, pointSeed(o.Seed, 2000+xi))
		notes = append(notes, fmt.Sprintf("instance %d: %d spines, %d ToRs, %d hosts, max ToR oversub %.1f:1",
			xi, len(sh.Spines), len(sh.ToRs), sh.Hosts, sh.MaxOversub()))
	}
	res := &Result{
		Name:   "Hetero: CCT across seeded irregular two-layer fabrics (8 MB, all-host broadcast)",
		XLabel: "instance", X: xs,
		Notes: append(notes, "K=0 on every instance: PEEL runs the generic layer-peeling fallback, no prefix planner"),
	}
	return grid(res, schemeLabels(schemes), o, func(xi, si int) trial {
		return trial{build: builds[xi], cfg: cfgs[xi], scheme: schemes[si], cols: workloads[xi], gpusPerHost: gpusPerHost}
	})
}
