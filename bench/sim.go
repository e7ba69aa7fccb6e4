package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"peel/internal/collective"
	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/experiments"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// The simulator workloads time whole experiments.* calls: the wall time
// to regenerate a paper figure is the number a user of peelsim feels.

// simOptions returns the experiment options for one call. Full scale
// starts from Defaults(); smoke from Quick() so the tier-1 test stays
// inside its budget. sub picks the experiment seed: 0 is the -seed flag
// itself, the others derive from it.
func simOptions(e *env, samples, sub int) experiments.Options {
	o := experiments.Defaults()
	if e.scale.quickSim {
		o = experiments.Quick()
	}
	o.Samples = samples
	o.Seed = e.seed
	if sub > 0 {
		o.Seed = pointSeed(e.seed, saltSim+sub)
	}
	o.Workers = e.nproc
	return o
}

type simCall struct {
	name string
	fn   func(experiments.Options) (*experiments.Result, error)
	// msgBytes maps an X value to the broadcast size, for the
	// bandwidth-bound ratio; nil when PEEL-vs-bound is not reported.
	msgBytes func(x float64) int64
}

var (
	fig5Call     = simCall{"fig5", experiments.Fig5, func(x float64) int64 { return int64(x) << 20 }}
	degradedCall = []simCall{
		{"fig7", experiments.Fig7, func(float64) int64 { return 8 << 20 }},
		{"chaos", experiments.ChaosStudy, nil},
		{"striping", experiments.StripingStudy, nil},
		{"hetero", experiments.HeteroStudy, nil},
	}
)

func runSimClean(e *env) (*round, error) {
	return runSim(e, []simCall{fig5Call}, e.scale.cleanSamples, e.scale.cleanSeeds)
}

func runSimDegraded(e *env) (*round, error) {
	return runSim(e, degradedCall, e.scale.degradedSamples, e.scale.degradedSeeds)
}

// runSim is one round of a simulator workload: a reduced warm-up sweep of
// every call (set-up: heap growth and lazy initialisation happen before
// the timed region), then every call once per sub-seed at the workload's
// sample count. A sweep's cost depends on what its seed draws (fabrics,
// failed links, arrival times), so a round spreads its samples over
// several seeds derived from -seed: the work of two runs with different
// -seed values then differs by a fraction of what one sweep's would. An
// operation is one simulated collective that contributes a CCT sample;
// the simulator gives no per-collective host time, so the round has one
// latency: its wall time divided by its collectives.
func runSim(e *env, calls []simCall, samples, seeds int) (*round, error) {
	r := newRound()
	tr := e.tr
	t0 := nowNs()
	op := tr.newOp()
	root := tr.start(op, noSpan, "bench.setup")
	for _, c := range calls {
		s := tr.start(op, root, "experiments."+c.name+"_warmup")
		_, err := c.fn(simOptions(e, e.scale.warmSamples, 0))
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", c.name, err)
		}
	}
	tr.end(root)
	r.Setup = secondsSince(t0)

	h := fnv.New64a()
	r.timed(func() {
		for _, c := range calls {
			for sub := 0; sub < seeds; sub++ {
				runCall(r, tr, c, simOptions(e, samples, sub), h)
			}
			if c.msgBytes != nil {
				r.Counts["peel_cct_vs_bound."+c.name] /= float64(seeds)
			}
		}
	})
	if done := r.Ops - r.Failed; done > 0 {
		r.Lat = []float64{r.Wall / float64(done) * 1e6}
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	return r, nil
}

// runCall runs one experiment, checks its result and folds it into the
// round: operations, failures, digest, and the call's share of the wall.
func runCall(r *round, tr *tracer, c simCall, o experiments.Options, h hash.Hash64) {
	op := tr.newOp()
	s := tr.start(op, noSpan, "experiments."+c.name)
	tc := nowNs()
	res, err := c.fn(o)
	r.Times["span_s."+c.name] += secondsSince(tc)
	tr.end(s)
	if err != nil {
		// A sweep that errors (a stalled collective, an exhausted event
		// budget) returns no points to count: it is one failed operation.
		r.note("%s seed %d: %v", c.name, o.Seed, err)
		r.Ops++
		r.Failed++
		return
	}
	n := len(res.X) * len(res.P99) * o.Samples
	r.Ops += n
	r.Failed += badPoints(res) * o.Samples
	digestResult(h, res)
	if c.msgBytes != nil {
		r.Counts["peel_cct_vs_bound."+c.name] += peelVsBound(res, c.msgBytes)
	}
}

// badPoints counts CCT points that are NaN, infinite or zero. The CCT
// means are the first len(P99) series of Mean; studies append derived
// series (downtime, repairs) after them, where zero is a legitimate
// value but NaN is not.
func badPoints(res *experiments.Result) int {
	bad := 0
	check := func(ss []telemetry.Series, zeroIsBad bool) {
		for _, s := range ss {
			for _, y := range s.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) || (zeroIsBad && y == 0) {
					bad++
				}
			}
		}
	}
	check(res.Mean[:len(res.P99)], true)
	check(res.Mean[len(res.P99):], false)
	check(res.P99, true)
	return bad
}

// digestResult folds every Mean and P99 value, bit for bit, into h: a
// reviewer comparing two commits sees at once whether simulated
// statistics moved.
func digestResult(h hash.Hash64, res *experiments.Result) {
	var b [8]byte
	for _, ss := range [][]telemetry.Series{res.Mean, res.P99} {
		for _, s := range ss {
			h.Write([]byte(s.Label))
			for _, y := range s.Y {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(y))
				h.Write(b[:])
			}
		}
	}
}

// peelVsBound is the bandwidth-optimal lower bound (message bytes ÷ the
// 100 Gb/s line rate) over PEEL's mean CCT, averaged over the sweep's X
// points: simulated time, so it repeats exactly for a seed.
func peelVsBound(res *experiments.Result, msgBytes func(float64) int64) float64 {
	for _, s := range res.Mean {
		if s.Label != string(collective.PEEL) {
			continue
		}
		sum := 0.0
		for i, x := range res.X {
			sum += float64(msgBytes(x)) * 8 / 100e9 / s.Y[i]
		}
		return sum / float64(len(res.X))
	}
	return math.NaN()
}

// ---- The Fig5 mirror ----------------------------------------------------
//
// experiments.Fig5 is one opaque call, so its layers are measured on a
// benchmark-owned copy of the sweep built only from the public calls
// Fig5 itself makes, with a span around each. mirror_match reports
// whether the copy's mean-CCT series equal Fig5's bit for bit; while it
// is 1 the spans describe the real sweep.

var (
	fig5Sizes      = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512}
	fig5QuickSizes = []float64{2, 32, 512}
)

type mirrorResult struct {
	mean      [][]float64 // [scheme][size]
	sweepWall float64
	events    uint64
	ecnMarks  uint64
	pfcPauses uint64
	linkDrops uint64
	mallocs   uint64
	gcPauseNs uint64
}

// mirrorConfig reproduces experiments.Options.configFor.
func mirrorConfig(o experiments.Options, msgBytes int64) netsim.Config {
	f := msgBytes / o.FramesPerMessage
	f = min(max(f, 4<<10), 4<<20)
	cfg := netsim.DefaultConfig()
	cfg.FrameBytes = f
	cfg.ECNKminBytes = 10 * f / 3
	cfg.ECNKmaxBytes = 133 * f
	cfg.BufferBytes = 8000 * f
	cfg.Seed = o.Seed
	return cfg
}

func mirrorFig5(tr *tracer, o experiments.Options) (*mirrorResult, error) {
	sizes := fig5Sizes
	if o.Samples <= experiments.Quick().Samples {
		sizes = fig5QuickSizes
	}
	schemes := collective.AllSchemes
	out := &mirrorResult{mean: make([][]float64, len(schemes))}
	for si := range out.mean {
		out.mean[si] = make([]float64, len(sizes))
	}
	workloads := make([][]*workload.Collective, len(sizes))
	for xi, x := range sizes {
		cl := workload.NewCluster(topology.FatTree(8), 8)
		rng := rand.New(rand.NewSource(pointSeed(o.Seed, xi)))
		cols, err := cl.Generate(o.Samples, o.Load, 100e9, workload.Spec{GPUs: 512, Bytes: int64(x) << 20}, rng)
		if err != nil {
			return nil, err
		}
		workloads[xi] = cols
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var events, ecn, pfc, drops atomic.Uint64
	op := tr.newOp()
	root := tr.start(op, noSpan, "experiments.mirror_sweep")
	t0 := nowNs()
	err := forEach(o.Workers, len(sizes)*len(schemes), func(k int) error {
		xi, si := k/len(schemes), k%len(schemes)
		scheme := schemes[si]
		cfg := mirrorConfig(o, int64(sizes[xi])<<20)

		cell := tr.start(op, root, "experiments.cell")
		defer tr.end(cell)
		s := tr.start(op, cell, "topology.fattree")
		g := topology.FatTree(8)
		tr.end(s)
		eng := &sim.Engine{}
		s = tr.start(op, cell, "netsim.new")
		net := netsim.New(g, eng, cfg)
		tr.end(s)
		s = tr.start(op, cell, "core.new_planner")
		planner, err := core.NewPlanner(g)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.start(op, cell, "collective.new_runner")
		cl := workload.NewCluster(g, 8)
		runner := collective.NewRunner(net, cl, planner, controller.New(cfg.RNG(netsim.SaltController)))
		tr.end(s)

		samples := &telemetry.Samples{}
		var startErr error
		var run int32
		s = tr.start(op, cell, "sim.schedule")
		for _, c := range workloads[xi] {
			eng.At(c.Arrival, func() {
				st := tr.start(op, run, "collective.start."+string(scheme))
				err := runner.Start(c, scheme, func(cct sim.Time) { samples.AddTime(cct) })
				tr.end(st)
				if err != nil && startErr == nil {
					startErr = err
				}
			})
		}
		tr.end(s)
		run = tr.start(op, cell, "sim.run")
		err = eng.Run(o.MaxEvents)
		tr.end(run)
		if err == nil {
			err = startErr
		}
		if err == nil && samples.N() != len(workloads[xi]) {
			err = fmt.Errorf("%d/%d collectives completed", samples.N(), len(workloads[xi]))
		}
		if err != nil {
			return fmt.Errorf("mirror %s @ %vMB: %w", scheme, sizes[xi], err)
		}
		s = tr.start(op, cell, "netsim.telemetry")
		tel := net.Telemetry()
		tr.end(s)
		events.Add(eng.Processed())
		ecn.Add(tel.ECNMarks)
		pfc.Add(tel.PFCPauses)
		drops.Add(tel.LinkDrops)
		out.mean[si][xi] = samples.Mean()
		return nil
	})
	out.sweepWall = secondsSince(t0)
	tr.end(root)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	out.events, out.ecnMarks, out.pfcPauses, out.linkDrops = events.Load(), ecn.Load(), pfc.Load(), drops.Load()
	out.mallocs = after.Mallocs - before.Mallocs
	out.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return out, nil
}

// matches reports whether the mirror's mean series equal res's exactly.
func (m *mirrorResult) matches(res *experiments.Result) bool {
	if len(res.Mean) != len(m.mean) {
		return false
	}
	for si, s := range res.Mean {
		if len(s.Y) != len(m.mean[si]) {
			return false
		}
		for xi, y := range s.Y {
			if math.Float64bits(y) != math.Float64bits(m.mean[si][xi]) {
				return false
			}
		}
	}
	return true
}

// forEach runs job(0..n-1) on a pool of workers goroutines, taking indices
// in order like the experiments package's own pool, and returns the
// lowest-index error.
func forEach(workers, n int, job func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
