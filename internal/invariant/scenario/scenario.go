// Package scenario is the generative harness of the invariant layer: it
// draws seeded random (topology, workload, chaos schedule, scheme) tuples,
// runs them end to end with every checker armed, shrinks failures by
// halving, and cross-checks the core algorithms against differential
// oracles (layer peeling vs the exact Dreyfus–Wagner solver, prefix
// covers vs a brute-force minimal cover, parallel vs serial execution).
package scenario

import (
	"fmt"
	"math/rand"

	"peel/internal/chaos"
	"peel/internal/collective"
	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/topology"
	"peel/internal/workload"
)

// Scenario is one fully seeded end-to-end case: a broadcast of Bytes to a
// GroupGPUs-wide group on a k=4 fat-tree under the chosen scheme, with an
// optional mid-flight fail/heal wave over the switch-switch links.
type Scenario struct {
	Seed       int64
	Scheme     collective.Scheme
	GroupGPUs  int
	Bytes      int64
	FrameBytes int64
	// ChaosFrac > 0 arms a FailFractionAt schedule: that fraction of the
	// switch-switch links fails at FailAt and heals at HealAt.
	ChaosFrac float64
	FailAt    sim.Time
	HealAt    sim.Time
}

func (sc Scenario) String() string {
	return fmt.Sprintf("seed=%d scheme=%s gpus=%d bytes=%d frame=%d chaos=%.2f fail=%v heal=%v",
		sc.Seed, sc.Scheme, sc.GroupGPUs, sc.Bytes, sc.FrameBytes,
		sc.ChaosFrac, sc.FailAt.Duration(), sc.HealAt.Duration())
}

// chaosSchemes are the schemes exercised under mid-flight failures (the
// ones ChaosStudy validates recovery for); the full set runs failure-free.
// StripedPEEL rides here so multi-stripe recovery shrinks too.
var chaosSchemes = []collective.Scheme{collective.PEEL, collective.Ring, collective.Orca, collective.StripedPEEL}

var allSchemes = collective.AllSchemes

// Generate draws the scenario for one seed. Same seed, same scenario.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:       seed,
		GroupGPUs:  8 + rng.Intn(56),          // 1–8 of the 16 hosts
		Bytes:      (64 << 10) << rng.Intn(5), // 64 KiB … 1 MiB
		FrameBytes: []int64{16 << 10, 32 << 10, 64 << 10}[rng.Intn(3)],
	}
	if rng.Intn(2) == 1 {
		sc.ChaosFrac = 0.05 + 0.20*rng.Float64()
		sc.FailAt = sim.Time(20+rng.Intn(180)) * sim.Microsecond
		sc.HealAt = sc.FailAt + sim.Time(100+rng.Intn(900))*sim.Microsecond
		sc.Scheme = chaosSchemes[rng.Intn(len(chaosSchemes))]
	} else {
		sc.Scheme = allSchemes[rng.Intn(len(allSchemes))]
	}
	return sc
}

// Result is what one scenario run produced; ParallelVsSerial compares
// these field by field.
type Result struct {
	CCT        sim.Time
	Events     uint64
	TotalBytes int64
	Recovery   collective.RecoveryStats
}

// maxScenarioEvents bounds one scenario run (runaway safety).
const maxScenarioEvents = 100_000_000

// Run executes the scenario against whatever invariant suite is globally
// enabled and returns the run's observables. It is safe to call from
// concurrent goroutines (the suite is race-safe; all sim state is local).
func Run(sc Scenario) (Result, error) {
	g := topology.FatTree(4)
	eng := &sim.Engine{}

	cfg := netsim.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.FrameBytes = sc.FrameBytes
	cfg.ECNKminBytes = 10 * sc.FrameBytes / 3
	cfg.ECNKmaxBytes = 133 * sc.FrameBytes
	cfg.BufferBytes = 8000 * sc.FrameBytes
	net := netsim.New(g, eng, cfg)

	planner, err := core.NewPlanner(g)
	if err != nil {
		return Result{}, err
	}
	cl := workload.NewCluster(g, 8)
	ctrl := controller.New(cfg.RNG(netsim.SaltController))
	runner := collective.NewRunner(net, cl, planner, ctrl)
	if sc.ChaosFrac > 0 {
		runner.Watchdog = 100 * sim.Microsecond
	}

	hosts, err := cl.Place(workload.Spec{GPUs: sc.GroupGPUs, Bytes: sc.Bytes}, cfg.RNG(netsim.SaltWorkload))
	if err != nil {
		return Result{}, err
	}
	c := &workload.Collective{Bytes: sc.Bytes, GPUs: sc.GroupGPUs, Hosts: hosts}

	var rep collective.Report
	done := false
	var startErr error
	eng.At(0, func() {
		if err := runner.StartReport(c, sc.Scheme, func(r collective.Report) { rep, done = r, true }); err != nil {
			startErr = err
		}
	})
	if sc.ChaosFrac > 0 {
		sched, _ := chaos.FailFractionAt(g, topology.SwitchLinks, sc.ChaosFrac,
			sc.FailAt, sc.HealAt, cfg.RNG(netsim.SaltChaos))
		if err := chaos.NewInjector(g, eng).Arm(sched); err != nil {
			return Result{}, err
		}
	}
	if err := eng.Run(maxScenarioEvents); err != nil {
		return Result{}, err
	}
	if startErr != nil {
		return Result{}, startErr
	}
	if !done {
		return Result{}, fmt.Errorf("scenario: %s did not complete", sc)
	}
	net.CheckQuiesced(invariant.Active())
	return Result{
		CCT:        rep.CCT,
		Events:     eng.Processed(),
		TotalBytes: net.TotalBytes(),
		Recovery:   rep.Recovery,
	}, nil
}

// RunIsolated runs the scenario under its own fresh suite (swapping the
// global one for the duration — callers must not run simulations on other
// goroutines meanwhile) and fails if the run errors or any checker fired.
// The shrinking loop uses it so a failing candidate's violations never
// leak into the enclosing test binary's verdict.
func RunIsolated(sc Scenario) (Result, error) {
	s := invariant.NewSuite()
	restore := invariant.Enable(s)
	defer restore()
	res, err := Run(sc)
	if err != nil {
		return res, err
	}
	if serr := s.Err(); serr != nil {
		return res, serr
	}
	return res, nil
}

// Shrink minimizes a failing scenario by halving: as long as some
// simplification (dropping chaos, halving the group, halving the message)
// still fails, keep it. fails must be deterministic for the scenario.
func Shrink(sc Scenario, fails func(Scenario) bool) Scenario {
	for {
		improved := false
		for _, cand := range shrinkCandidates(sc) {
			if fails(cand) {
				sc = cand
				improved = true
				break
			}
		}
		if !improved {
			return sc
		}
	}
}

func shrinkCandidates(sc Scenario) []Scenario {
	var out []Scenario
	if sc.ChaosFrac > 0 {
		c := sc
		c.ChaosFrac, c.FailAt, c.HealAt = 0, 0, 0
		out = append(out, c)
	}
	if half := sc.GroupGPUs / 2; half >= 9 { // ≥9 GPUs keeps ≥2 hosts in the group
		c := sc
		c.GroupGPUs = half
		out = append(out, c)
	}
	if half := sc.Bytes / 2; half >= 64<<10 {
		c := sc
		c.Bytes = half
		out = append(out, c)
	}
	return out
}
