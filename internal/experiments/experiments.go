// Package experiments reproduces every table and figure in the paper's
// evaluation (§4) plus the switch-state and approximation headlines. Each
// Fig* function returns a structured Result whose series correspond to
// the curves in the paper; cmd/peelsim prints them and EXPERIMENTS.md
// records paper-vs-measured shape comparisons.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"peel/internal/collective"
	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/perfstats"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// Options tunes experiment fidelity. Zero values pick full-fidelity
// defaults; Quick() shrinks everything for tests and benchmarks.
type Options struct {
	// Samples is the number of collectives simulated per configuration
	// point (the CCT distribution's sample count).
	Samples int
	// Seed drives workload generation and the simulator's RNGs.
	Seed int64
	// FramesPerMessage controls simulation granularity: the frame size is
	// message/FramesPerMessage clamped to [4 KiB, 4 MiB]. Coarser frames
	// rescale absolute times identically across schemes (DESIGN.md).
	FramesPerMessage int64
	// Load is the offered load for Poisson workloads (the paper: 0.30).
	Load float64
	// MaxEvents bounds each simulation run (safety).
	MaxEvents uint64
	// ChaosFrac, when positive, restricts ChaosStudy to a single failure
	// fraction instead of the default sweep.
	ChaosFrac float64
	// Workers bounds the number of concurrent simulation runs per sweep.
	// Each (scheme, X) point is an independent deterministic simulation,
	// so results are byte-identical for any worker count; 1 runs the
	// points serially (the determinism oracle), 0 defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// Perf, when set, appends a performance digest (runs, events/s, wall
	// time, worker occupancy, allocations) to each Result's Notes. Off by
	// default so rendered output stays byte-stable across machines.
	Perf bool
	// TelemetrySample, when positive, arms a per-run CSV time-series
	// sampler at this simulated interval (peelsim -telemetry-csv). The
	// sampler adds engine events, so runs with it armed are not
	// event-stream-comparable to runs without; aggregate telemetry totals
	// are unaffected either way.
	TelemetrySample sim.Time
	// Stripes caps the headline stripe count for StripingStudy (peelsim
	// -stripes): 4 (the default, scheme striped-peel) or 2 (striped-peel-2).
	Stripes int
}

// Defaults returns full-fidelity options.
func Defaults() Options {
	return Options{Samples: 40, Seed: 1, FramesPerMessage: 128, Load: 0.30, MaxEvents: 600_000_000}
}

// Quick returns reduced-fidelity options for tests and benchmarks.
func Quick() Options {
	return Options{Samples: 6, Seed: 1, FramesPerMessage: 32, Load: 0.30, MaxEvents: 120_000_000}
}

func (o Options) normalized() Options {
	d := Defaults()
	if o.Samples <= 0 {
		o.Samples = d.Samples
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.FramesPerMessage <= 0 {
		o.FramesPerMessage = d.FramesPerMessage
	}
	if o.Load <= 0 {
		o.Load = d.Load
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = d.MaxEvents
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// perfCollector returns a live collector when perf reporting is on; a
// nil *perfstats.Collector ignores Record calls, so run helpers thread
// it unconditionally.
func (o Options) perfCollector() *perfstats.Collector {
	if !o.Perf {
		return nil
	}
	return new(perfstats.Collector)
}

// perfSpan brackets one figure's simulation work for the perf note:
// created before the runs, finished (with the Result) after them.
type perfSpan struct {
	c      *perfstats.Collector
	start  time.Time
	allocs uint64
}

func (o Options) perfSpanStart() perfSpan {
	c := o.perfCollector()
	if c == nil {
		return perfSpan{}
	}
	return perfSpan{c: c, start: time.Now(), allocs: perfstats.MemAllocs()}
}

// finish appends the digest to res.Notes. No-op for a dead span, so the
// rendered output is untouched unless -perf was requested.
func (p perfSpan) finish(res *Result) {
	if p.c == nil || res == nil {
		return
	}
	res.Notes = append(res.Notes, p.c.Note(time.Since(p.start), perfstats.MemAllocs()-p.allocs))
}

// frameFor picks the simulation frame for a message size.
func (o Options) frameFor(msgBytes int64) int64 {
	f := msgBytes / o.FramesPerMessage
	if f < 4<<10 {
		f = 4 << 10
	}
	if f > 4<<20 {
		f = 4 << 20
	}
	return f
}

// configFor builds a netsim config whose congestion thresholds scale with
// the frame size, preserving the paper's DCQCN setup in MTU-relative
// terms (Kmin≈3.3 MTU, Kmax≈133 MTU, 12 MB ≈ 8000 MTU of buffer).
func (o Options) configFor(msgBytes int64, seed int64) netsim.Config {
	cfg := netsim.DefaultConfig()
	f := o.frameFor(msgBytes)
	cfg.FrameBytes = f
	cfg.ECNKminBytes = 10 * f / 3
	cfg.ECNKmaxBytes = 133 * f
	cfg.BufferBytes = 8000 * f
	cfg.Seed = seed
	return cfg
}

// Result is one figure's regenerated data: X values plus mean- and
// p99-CCT series per scheme (or scheme-free values for analytic figures).
type Result struct {
	Name   string
	XLabel string
	X      []float64
	Mean   []telemetry.Series
	P99    []telemetry.Series
	Notes  []string
}

// Render prints the figure's series as aligned tables.
func (r *Result) Render() string {
	out := fmt.Sprintf("== %s ==\n", r.Name)
	if len(r.Mean) > 0 {
		out += "mean:\n" + telemetry.Table(r.XLabel, r.X, r.Mean)
	}
	if len(r.P99) > 0 {
		out += "p99:\n" + telemetry.Table(r.XLabel, r.X, r.P99)
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// runWorkload simulates one (fabric, scheme, workload) combination and
// returns the CCT samples. Every collective must complete; a stall is an
// error (it would silently bias the tail otherwise).
//
// Concurrency contract: runWorkload is called from worker goroutines, so
// everything it mutates — engine, network, samples, and the
// startErr/completed closure state — is a per-call local. The inputs it
// shares with sibling runs (cols, cfg) are read-only here; in particular
// the *workload.Collective structs must not be written. The -race sweep
// test in experiments_test.go enforces this.
func runWorkload(build func() *topology.Graph, usePlanner bool, scheme collective.Scheme,
	cols []*workload.Collective, cfg netsim.Config, gpusPerHost int, maxEvents uint64,
	perf *perfstats.Collector, sample sim.Time) (*telemetry.Samples, *netsim.Network, error) {

	g := build()
	eng := &sim.Engine{}
	net := netsim.New(g, eng, cfg)
	var planner *core.Planner
	if usePlanner {
		var err error
		planner, err = core.NewPlanner(g)
		if err != nil {
			return nil, nil, err
		}
	}
	cl := workload.NewCluster(g, gpusPerHost)
	ctrl := controller.New(cfg.RNG(netsim.SaltController))
	runner := collective.NewRunner(net, cl, planner, ctrl)

	samples := &telemetry.Samples{}
	completed := 0
	var startErr error
	for _, c := range cols {
		c := c
		eng.At(c.Arrival, func() {
			if err := runner.Start(c, scheme, func(cct sim.Time) {
				samples.AddTime(cct)
				completed++
			}); err != nil && startErr == nil {
				startErr = err
			}
		})
	}
	net.ArmTelemetrySampler(telemetry.Active(), sample)
	runStart := time.Now()
	if err := eng.Run(maxEvents); err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", scheme, err)
	}
	perf.Record(eng.Processed(), time.Since(runStart))
	if startErr != nil {
		return nil, nil, startErr
	}
	if completed != len(cols) {
		return nil, nil, fmt.Errorf("experiments: %s: %d/%d collectives completed", scheme, completed, len(cols))
	}
	// The engine drained and every collective completed: the fabric must be
	// truly quiescent (no frames live, all byte accounting zeroed).
	net.CheckQuiesced(invariant.Active())
	net.PublishTelemetry(telemetry.Active())
	return samples, net, nil
}

// sweepCCT runs a full scheme × X sweep, generating an identical workload
// per X for every scheme (same seed ⇒ same arrivals and placements).
//
// The (X, scheme) grid fans out over o.Workers goroutines: every cell is
// an independent simulation writing its mean/p99 into a preallocated
// index-addressed slot, so the Result is byte-identical for any worker
// count. Workloads are generated serially up front (cheap, and it keeps
// RNG consumption order fixed); each point's seed comes from its sweep
// index via pointSeed, never from the float X value.
func sweepCCT(name, xLabel string, xs []float64, schemes []collective.Scheme,
	build func() *topology.Graph, usePlanner bool, gpusPerHost int,
	gen func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error),
	cfgFor func(x float64) netsim.Config, o Options) (*Result, error) {

	res := &Result{Name: name, XLabel: xLabel, X: xs}
	for _, s := range schemes {
		res.Mean = append(res.Mean, telemetry.Series{Label: string(s), X: xs, Y: make([]float64, len(xs))})
		res.P99 = append(res.P99, telemetry.Series{Label: string(s) + "/p99", X: xs, Y: make([]float64, len(xs))})
	}
	// One workload per X, shared read-only across schemes.
	workloads := make([][]*workload.Collective, len(xs))
	for xi, x := range xs {
		gWork := build()
		clWork := workload.NewCluster(gWork, gpusPerHost)
		rng := rand.New(rand.NewSource(pointSeed(o.Seed, xi)))
		cols, err := gen(x, rng, clWork)
		if err != nil {
			return nil, err
		}
		workloads[xi] = cols
	}
	span := o.perfSpanStart()
	grid := len(xs) * len(schemes)
	err := forEachIndex(o.Workers, grid, func(k int) error {
		xi, si := k/len(schemes), k%len(schemes)
		cfg := cfgFor(xs[xi])
		samples, _, err := runWorkload(build, usePlanner, schemes[si], workloads[xi], cfg, gpusPerHost, o.MaxEvents, span.c, o.TelemetrySample)
		if err != nil {
			return fmt.Errorf("%s @ %s=%v: %w", name, xLabel, xs[xi], err)
		}
		res.Mean[si].Y[xi] = samples.Mean()
		res.P99[si].Y[xi] = samples.P99()
		return nil
	})
	if err != nil {
		return nil, err
	}
	span.finish(res)
	return res, nil
}
