package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"peel/internal/collective"
	"peel/internal/netsim"
	"peel/internal/topology"
	"peel/internal/workload"
)

func TestForEachIndexRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]atomic.Int32, n)
		if err := forEachIndex(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachIndex(workers, 50, func(i int) error {
			if i == 17 || i == 3 || i == 40 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: want lowest-index error, got %v", workers, err)
		}
	}
	if err := forEachIndex(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatalf("n=0 ran a job: %v", err)
	}
}

// TestPointSeedPinned pins the index-mixing function: seeds depend only
// on (base seed, sweep index), are stable across releases, and never
// collide the way the old `seed + int64(x*1000)` derivation did for X
// values truncating to the same integer.
func TestPointSeedPinned(t *testing.T) {
	pins := []struct {
		seed int64
		i    int
		want int64
	}{
		{1, 0, -1965031076028369767},
		{1, 1, 392536317241979068},
		{2, 0, 4560642061891045783},
		{42, 7, 4514690712196278145},
	}
	for _, p := range pins {
		if got := pointSeed(p.seed, p.i); got != p.want {
			t.Errorf("pointSeed(%d,%d) = %d, want %d", p.seed, p.i, got, p.want)
		}
	}
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := pointSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indexes %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
}

// TestSweepSeedsIndexDerived reproduces the old bug's trigger: two sweep
// points whose X values truncate to the same integer (0.001 and 0.0005
// ⇒ both int64 0) must still get distinct workload RNG streams. The gen
// callback records each point's first RNG draw and then aborts the sweep
// before any simulation runs.
func TestSweepSeedsIndexDerived(t *testing.T) {
	var draws []int64
	build := func() *topology.Graph { return topology.LeafSpine(2, 2, 2) }
	gen := func(x float64, rng *rand.Rand, cl *workload.Cluster) ([]*workload.Collective, error) {
		draws = append(draws, rng.Int63())
		if len(draws) == 2 {
			return nil, errors.New("stop: seeds captured")
		}
		return nil, nil
	}
	o := Quick().normalized()
	_, err := sweepCCT("seed-test", "x", []float64{0.001, 0.0005},
		[]collective.Scheme{collective.Ring}, build, false, 2, gen,
		func(float64) netsim.Config { return netsim.DefaultConfig() }, o)
	if err == nil {
		t.Fatal("sweep should have aborted after capturing seeds")
	}
	if len(draws) != 2 {
		t.Fatalf("captured %d draws", len(draws))
	}
	if draws[0] == draws[1] {
		t.Fatalf("x=0.001 and x=0.0005 share a workload RNG stream (draw %d)", draws[0])
	}
}

// TestParallelSweepDeterminism is the determinism oracle for the worker
// pool: Workers=4 must produce byte-identical rendered output to the
// serial Workers=1 run for both the sweepCCT path (Fig5) and the
// Fig7 grid.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	figs := []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"fig5", Fig5},
		{"fig7", Fig7},
	}
	for _, fig := range figs {
		render := func(workers int) string {
			o := Quick()
			o.Samples = 3
			o.Workers = workers
			res, err := fig.run(o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fig.name, workers, err)
			}
			return res.Render()
		}
		serial := render(1)
		parallel := render(4)
		if serial != parallel {
			t.Errorf("%s: Workers=4 output differs from Workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				fig.name, serial, parallel)
		}
	}
}

// TestParallelSweepSharedState drives the studies that share one
// workload slice across concurrent runs with a deliberately oversized
// worker pool; under `go test -race` this is the guard against cross-run
// mutation of cols, cfg, or closure state.
func TestParallelSweepSharedState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 2
	o.Workers = 8
	if _, err := LossStudy(o); err != nil {
		t.Fatalf("loss study: %v", err)
	}
	if _, err := Fig7(o); err != nil {
		t.Fatalf("fig7: %v", err)
	}
}
