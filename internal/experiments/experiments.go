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

	"peel/internal/collective"
	"peel/internal/netsim"
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
	// TelemetrySample, when positive, arms a per-run CSV time-series
	// sampler at this simulated interval (peelsim -telemetry-csv). The
	// sampler adds engine events, so runs with it armed are not
	// event-stream-comparable to runs without; aggregate telemetry totals
	// are unaffected either way.
	TelemetrySample sim.Time
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

// sweepCCT runs a full scheme × X sweep, generating an identical workload
// per X for every scheme (same seed ⇒ same arrivals and placements), and
// hands the (X, scheme) grid to grid. Workloads are generated serially up
// front (cheap, and it keeps RNG consumption order fixed); each point's
// seed comes from its sweep index via pointSeed, never from the float X
// value.
func sweepCCT(name, xLabel string, xs []float64, schemes []collective.Scheme,
	build func() *topology.Graph, usePlanner bool, gpusPerHost int,
	gen func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error),
	cfgFor func(x float64) netsim.Config, o Options) (*Result, error) {

	// One workload per X, shared read-only across schemes.
	workloads := make([][]*workload.Collective, len(xs))
	for xi, x := range xs {
		rng := rand.New(rand.NewSource(pointSeed(o.Seed, xi)))
		cols, err := gen(x, rng, workload.NewCluster(build(), gpusPerHost))
		if err != nil {
			return nil, err
		}
		workloads[xi] = cols
	}
	return grid(&Result{Name: name, XLabel: xLabel, X: xs}, schemeLabels(schemes), o, func(xi, si int) trial {
		return trial{build: build, cfg: cfgFor(xs[xi]), scheme: schemes[si], cols: workloads[xi],
			planner: usePlanner, gpusPerHost: gpusPerHost}
	})
}
