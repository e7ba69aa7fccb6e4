package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"peel/internal/service"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

func newRig(t testing.TB, k int, opts service.Options) (*service.Service, *workload.Cluster) {
	t.Helper()
	g := topology.FatTree(k)
	s := service.New(g, opts)
	t.Cleanup(s.Close)
	return s, workload.NewCluster(g, 1)
}

func TestGeneratorPreCreatesGroups(t *testing.T) {
	s, cluster := newRig(t, 4, service.Options{})
	gen, err := New(s, s, cluster, Config{Groups: 10, GroupSize: 4, Ops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.IDs()) != 10 {
		t.Fatalf("IDs = %d, want 10", len(gen.IDs()))
	}
	if st := s.Stats(); st.Groups != 10 {
		t.Fatalf("Groups = %d, want 10", st.Groups)
	}
	for _, id := range gen.IDs() {
		gi, err := s.Describe(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(gi.Members) < 2 {
			t.Fatalf("group %s too small: %v", id, gi.Members)
		}
	}
}

func TestRunMixedWorkloadClean(t *testing.T) {
	s, cluster := newRig(t, 4, service.Options{})
	gen, err := New(s, s, cluster, Config{Groups: 32, GroupSize: 4, Workers: 4, Ops: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", st.Ops)
	}
	if st.Errors != 0 {
		t.Fatalf("hard errors: %+v", st)
	}
	if st.Gets == 0 || st.Hits+st.Misses+st.GetBenign+st.GetOverloaded+st.GetErrors != st.Gets {
		t.Fatalf("get accounting: %+v", st)
	}
	if st.HitRate < 0.5 {
		t.Fatalf("hit rate %.2f implausibly low: %+v", st.HitRate, st)
	}
	if st.ErrorsByKind != nil {
		t.Fatalf("clean run reported errors_by_kind: %+v", st.ErrorsByKind)
	}
}

// deadReplicaClient answers fine while the generator pre-creates groups,
// then — once dead — fails every operation the way a client talking to a
// dead replica does: tree reads die at the transport, membership lookups
// run out their deadline, and teardown hits a draining listener.
type deadReplicaClient struct {
	dead atomic.Bool
}

func (c *deadReplicaClient) err(kind string) error {
	switch kind {
	case "deadline":
		return fmt.Errorf("dead replica: %w", context.DeadlineExceeded)
	case "draining":
		return fmt.Errorf("dead replica: %w", service.ErrDraining)
	default:
		return fmt.Errorf("dead replica: connection refused")
	}
}

func (c *deadReplicaClient) CreateGroup(ctx context.Context, id string, members []topology.NodeID) (service.GroupInfo, error) {
	if c.dead.Load() {
		return service.GroupInfo{}, c.err("transport")
	}
	return service.GroupInfo{ID: id, Source: members[0], Members: members}, nil
}

func (c *deadReplicaClient) Describe(ctx context.Context, id string) (service.GroupInfo, error) {
	if c.dead.Load() {
		return service.GroupInfo{}, c.err("deadline")
	}
	return service.GroupInfo{ID: id}, nil
}

func (c *deadReplicaClient) Join(ctx context.Context, id string, host topology.NodeID) (service.GroupInfo, error) {
	if c.dead.Load() {
		return service.GroupInfo{}, c.err("deadline")
	}
	return service.GroupInfo{ID: id}, nil
}

func (c *deadReplicaClient) Leave(ctx context.Context, id string, host topology.NodeID) (service.GroupInfo, error) {
	if c.dead.Load() {
		return service.GroupInfo{}, c.err("deadline")
	}
	return service.GroupInfo{ID: id}, nil
}

func (c *deadReplicaClient) GetTree(ctx context.Context, id string) (service.TreeInfo, error) {
	if c.dead.Load() {
		return service.TreeInfo{}, c.err("transport")
	}
	return service.TreeInfo{Cached: true}, nil
}

func (c *deadReplicaClient) DeleteGroup(ctx context.Context, id string) error {
	if c.dead.Load() {
		return c.err("draining")
	}
	return nil
}

// TestDeadReplicaSurfacesTypedErrorCounts is the regression gate for
// error-kind accounting: a run against a dead replica must report
// nonzero per-kind counts in errors_by_kind (not one opaque total), and
// the kinds must sum to the hard-error total.
func TestDeadReplicaSurfacesTypedErrorCounts(t *testing.T) {
	g := topology.FatTree(4)
	cluster := workload.NewCluster(g, 1)
	client := &deadReplicaClient{}
	gen, err := New(client, nil, cluster, Config{Groups: 8, GroupSize: 4, Workers: 2, Ops: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	client.dead.Store(true)
	st := gen.Run(context.Background())
	if st.Errors == 0 {
		t.Fatalf("dead replica produced no hard errors: %+v", st)
	}
	var sum int64
	for _, kind := range []string{"transport", "deadline", "draining"} {
		if st.ErrorsByKind[kind] == 0 {
			t.Fatalf("errors_by_kind[%q] = 0, want nonzero: %+v", kind, st.ErrorsByKind)
		}
		sum += st.ErrorsByKind[kind]
	}
	if sum != st.Errors {
		t.Fatalf("errors_by_kind sums to %d, want %d: %+v", sum, st.Errors, st.ErrorsByKind)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	s, cluster := newRig(t, 4, service.Options{})
	gen, err := New(s, s, cluster, Config{Groups: 8, GroupSize: 4, Workers: 2, Ops: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	st := gen.Run(ctx)
	if st.Ops >= 1<<30 {
		t.Fatalf("cancelled run completed the full budget")
	}
	// The op budget must not size anything: a cancelled run returns at
	// once instead of reserving per-worker buffers for 2^30 ops.
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("cancelled run took %v to return, want < 100ms", d)
	}
}

// TestChaosSmokeServesOnlyValidTrees is the acceptance gate for the
// invalidation protocol: scripted link flaps under concurrent load, with
// the package-wide invariant suite armed, must produce zero hard errors —
// and invtest.Main fails the binary if any served tree failed validation
// against the degraded graph.
func TestChaosSmokeServesOnlyValidTrees(t *testing.T) {
	s, cluster := newRig(t, 8, service.Options{})
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	gen, err := New(s, s, cluster, Config{
		Groups:    64,
		GroupSize: 8,
		Workers:   8,
		Ops:       ops,
		Seed:      13,
		FlapEvery: 200,
		FlapHeal:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Errors != 0 {
		t.Fatalf("hard errors under chaos: %+v", st)
	}
	if st.Flaps == 0 {
		t.Fatalf("chaos schedule never fired: %+v", st)
	}
	if s.Gen() == 0 {
		t.Fatalf("no failure transitions observed by the service")
	}
	t.Logf("chaos smoke: %+v", st)
}

// TestThroughputAndHitRateFloor is the performance acceptance criterion:
// ≥100k ops/sec in-process with a ≥90% GetTree hit rate on the default
// Zipf mix. Skipped under the race detector, whose instrumentation is not
// the configuration the bar describes.
func TestThroughputAndHitRateFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput floor not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("throughput floor needs the full op budget")
	}
	s, cluster := newRig(t, 8, service.Options{})
	gen, err := New(s, s, cluster, Config{Ops: 200000})
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Errors != 0 {
		t.Fatalf("hard errors: %+v", st)
	}
	if st.OpsPerSec < 100000 {
		t.Fatalf("throughput %.0f ops/sec below the 100k floor: %+v", st.OpsPerSec, st)
	}
	if st.HitRate < 0.90 {
		t.Fatalf("hit rate %.3f below the 0.90 floor: %+v", st.HitRate, st)
	}
	t.Logf("throughput: %.0f ops/sec, hit rate %.3f", st.OpsPerSec, st.HitRate)
}

// TestGoldenRunReport pins the schema-versioned telemetry run-report of a
// deterministic single-worker load run: fixed seeds, an op-count-keyed
// flap schedule, and no wall-clock-derived series mean the report is
// byte-stable. Regenerate with PEEL_UPDATE_GOLDEN=1 after intentional
// changes (bump telemetry.SchemaVersion if the shape changed).
func TestGoldenRunReport(t *testing.T) {
	sink := telemetry.NewSink(0)
	defer telemetry.Enable(sink)()
	s, cluster := newRig(t, 4, service.Options{Seed: 1})
	gen, err := New(s, s, cluster, Config{
		Groups:    16,
		GroupSize: 4,
		Workers:   1,
		Ops:       5000,
		Seed:      1,
		FlapEvery: 500,
		FlapHeal:  250,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Errors != 0 {
		t.Fatalf("hard errors: %+v", st)
	}
	s.RefreshGauges()
	var buf bytes.Buffer
	if err := sink.Report("loadgen-golden").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", "loadgen_runreport.golden.json")
	if os.Getenv("PEEL_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden run-report updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with PEEL_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("run-report drifted from golden.\nIf intentional, regenerate with PEEL_UPDATE_GOLDEN=1 (and bump telemetry.SchemaVersion if the schema changed).\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestConfigRejectsFlapsWithoutInjector(t *testing.T) {
	s, cluster := newRig(t, 4, service.Options{})
	if _, err := New(s, nil, cluster, Config{FlapEvery: 10}); err == nil {
		t.Fatal("FlapEvery without FaultInjector accepted")
	}
}
