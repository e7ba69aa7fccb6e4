package experiments

import (
	"fmt"

	"peel/internal/collective"
	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// trial is one simulation run: a fresh fabric from build, every
// collective of cols started at its arrival under one scheme, then the
// checks every run must pass. Every study simulates through trial.run,
// so set-up and checks cannot drift between studies.
//
// Concurrency contract: trials run on worker goroutines, so everything
// run mutates — graph, engine, network, runner, reports — is built per
// call. cols and cfg may be shared with sibling trials and are only
// read; in particular the *workload.Collective structs must not be
// written. The -race sweep tests in parallel_test.go enforce this.
type trial struct {
	build  func() *topology.Graph
	cfg    netsim.Config
	scheme collective.Scheme
	cols   []*workload.Collective
	// planner gives the runner a prefix planner (fabrics with K > 0).
	planner bool
	// gpusPerHost sizes the cluster; 0 means 8.
	gpusPerHost int
	// watchdog arms the runner's stall watchdog; 0 leaves it off.
	watchdog sim.Time
	// allGather starts each collective as an AllGather, not a broadcast.
	allGather bool
	// arm, when set, runs after set-up and before any start is scheduled:
	// the one per-study extra (chaos injector, OCS epochs, bystander
	// flows). The runner reaches the graph, engine and network.
	arm func(r *collective.Runner) error
}

// run simulates the trial. It returns every collective's report in
// completion order, and the network for byte and flow counters. A start
// error, an engine error or a collective that never completes fails the
// run; a run that drained must also leave the fabric quiescent.
func (t trial) run(o Options) ([]collective.Report, *netsim.Network, error) {
	g := t.build()
	eng := &sim.Engine{}
	net := netsim.New(g, eng, t.cfg)
	var planner *core.Planner
	if t.planner {
		var err error
		if planner, err = core.NewPlanner(g); err != nil {
			return nil, nil, err
		}
	}
	gpus := t.gpusPerHost
	if gpus == 0 {
		gpus = 8
	}
	ctrl := controller.New(t.cfg.RNG(netsim.SaltController))
	runner := collective.NewRunner(net, workload.NewCluster(g, gpus), planner, ctrl)
	runner.Watchdog = t.watchdog
	if t.arm != nil {
		if err := t.arm(runner); err != nil {
			return nil, nil, err
		}
	}

	reps := make([]collective.Report, 0, len(t.cols))
	var startErr error
	for _, c := range t.cols {
		eng.At(c.Arrival, func() {
			var err error
			if t.allGather {
				err = runner.StartAllGather(c, t.scheme, func(cct sim.Time) {
					reps = append(reps, collective.Report{CCT: cct})
				})
			} else {
				err = runner.StartReport(c, t.scheme, func(r collective.Report) { reps = append(reps, r) })
			}
			if err != nil && startErr == nil {
				startErr = err
			}
		})
	}
	net.ArmTelemetrySampler(telemetry.Active(), o.TelemetrySample)
	if err := eng.Run(o.MaxEvents); err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", t.scheme, err)
	}
	if startErr != nil {
		return nil, nil, startErr
	}
	if len(reps) != len(t.cols) {
		return nil, nil, fmt.Errorf("experiments: %s: %d/%d collectives completed", t.scheme, len(reps), len(t.cols))
	}
	// The engine drained and every collective completed: the fabric must be
	// truly quiescent (no frames live, all byte accounting zeroed).
	net.CheckQuiesced(invariant.Active())
	net.PublishTelemetry(telemetry.Active())
	return reps, net, nil
}

// cctSamples collects the reports' CCTs in completion order — the order
// Samples.Mean sums in, so every printed mean is reproducible.
func cctSamples(reps []collective.Report) *telemetry.Samples {
	s := &telemetry.Samples{}
	for _, r := range reps {
		s.AddTime(r.CCT)
	}
	return s
}

// grid fills res with one mean and one p99 CCT series per label, running
// trial cell(xi, si) for every (res.X[xi], labels[si]) pair over
// o.Workers goroutines. Each cell writes only its own preallocated slot,
// so the Result is byte-identical for any worker count.
func grid(res *Result, labels []string, o Options, cell func(xi, si int) trial) (*Result, error) {
	xs := res.X
	for _, l := range labels {
		res.Mean = append(res.Mean, telemetry.Series{Label: l, X: xs, Y: make([]float64, len(xs))})
		res.P99 = append(res.P99, telemetry.Series{Label: l + "/p99", X: xs, Y: make([]float64, len(xs))})
	}
	err := forEachIndex(o.Workers, len(xs)*len(labels), func(k int) error {
		xi, si := k/len(labels), k%len(labels)
		reps, _, err := cell(xi, si).run(o)
		if err != nil {
			return fmt.Errorf("%s @ %s=%v: %w", labels[si], res.XLabel, xs[xi], err)
		}
		s := cctSamples(reps)
		res.Mean[si].Y[xi] = s.Mean()
		res.P99[si].Y[xi] = s.P99()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// schemeLabels names each series after its scheme.
func schemeLabels(schemes []collective.Scheme) []string {
	labels := make([]string, len(schemes))
	for i, s := range schemes {
		labels[i] = string(s)
	}
	return labels
}

// alone is c as a one-collective workload started at time 0: the
// single-broadcast studies time their failures and epochs from the start.
func alone(c *workload.Collective) []*workload.Collective {
	c0 := *c
	c0.Arrival = 0
	return []*workload.Collective{&c0}
}
