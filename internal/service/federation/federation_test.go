package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peel/internal/invariant"
	"peel/internal/service"
	"peel/internal/service/loadgen"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

func fatTree(k int) func() *topology.Graph {
	return func() *topology.Graph { return topology.FatTree(k) }
}

func newFed(t testing.TB, cfg Config) *Federation {
	t.Helper()
	if cfg.NewGraph == nil {
		cfg.NewGraph = fatTree(4)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// seedGroups creates n groups of size hosts each, striped over the fabric.
func seedGroups(t testing.TB, f *Federation, n, size int) []string {
	t.Helper()
	hosts := f.Oracle().Graph().Hosts()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("fg%03d", i)
		members := make([]topology.NodeID, size)
		for j := 0; j < size; j++ {
			members[j] = hosts[(i*size+j)%len(hosts)]
		}
		if _, err := f.CreateGroup(context.Background(), ids[i], members); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// primaryFor reports which replica index the ring routes id's canonical
// key to.
func primaryFor(t testing.TB, f *Federation, id string) int {
	t.Helper()
	_, _, key, err := f.Oracle().GroupSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	return hrwOrder(*f.reps.Load(), key)[0].idx
}

func TestFederatedServesOracleIdenticalTrees(t *testing.T) {
	f := newFed(t, Config{Replicas: 3})
	// 4 groups of 4 over 16 hosts: memberships are disjoint, so every
	// first GetTree must be a genuine replica-cache miss.
	ids := seedGroups(t, f, 4, 4)
	ctx := context.Background()

	for _, id := range ids {
		ti, err := f.GetTree(ctx, id)
		if err != nil {
			t.Fatalf("GetTree(%s): %v", id, err)
		}
		if ti.Tree == nil || ti.Cost <= 0 || ti.Cached {
			t.Fatalf("first GetTree(%s) = %+v, want fresh valid tree", id, ti)
		}
	}
	for _, id := range ids {
		ti, err := f.GetTree(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !ti.Cached {
			t.Fatalf("second GetTree(%s) missed the replica cache", id)
		}
	}

	// The explicit-membership path routes too (members[0] is the source).
	hosts := f.Oracle().Graph().Hosts()
	if ti, err := f.TreeFor(ctx, []topology.NodeID{hosts[0], hosts[1], hosts[2]}); err != nil || ti.Tree == nil {
		t.Fatalf("TreeFor: ti=%+v err=%v", ti, err)
	}

	// Find a link whose failure keeps every group servable (a redundant
	// aggregation/core link), fail it federation-wide, and prove every
	// group still answers — the armed invariant suite verifies each answer
	// against the oracle's degraded graph.
	flapped := topology.LinkID(-1)
	for l := 0; l < f.NumLinks() && flapped < 0; l++ {
		if !f.FailLink(topology.LinkID(l)) {
			t.Fatalf("FailLink(%d) was a no-op on a healthy fabric", l)
		}
		ok := true
		for _, id := range ids {
			if _, err := f.GetTree(ctx, id); err != nil {
				if !errors.Is(err, steiner.ErrUnreachable) {
					t.Fatalf("GetTree(%s) under flap: %v", id, err)
				}
				ok = false
				break
			}
		}
		if ok {
			flapped = topology.LinkID(l)
		} else {
			f.RestoreLink(topology.LinkID(l))
		}
	}
	if flapped < 0 {
		t.Fatal("no single link failure left the workload servable")
	}
	if !f.RestoreLink(flapped) {
		t.Fatal("RestoreLink was a no-op")
	}

	c := f.Census()
	if c.Events == 0 {
		t.Fatal("no replicated events recorded")
	}
	for _, r := range c.Replicas {
		if r.State != "up" || r.Acked != c.Events {
			t.Fatalf("replica %s lagging after synchronous replication: %+v (events=%d)", r.Name, r, c.Events)
		}
	}
	for _, id := range ids {
		if _, err := f.GetTree(ctx, id); err != nil {
			t.Fatalf("GetTree(%s) after heal: %v", id, err)
		}
	}
}

// TestLoadgenChaosZeroFailedOps is the headline acceptance run: a
// 3-replica federation under mixed load with scripted link flaps AND
// replica kill/restart chaos completes with zero failed client
// operations, every answer invariant-checked against the oracle.
func TestLoadgenChaosZeroFailedOps(t *testing.T) {
	f := newFed(t, Config{Replicas: 3, NewGraph: fatTree(8)})
	cluster := workload.NewCluster(f.Oracle().Graph(), 1)
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	gen, err := loadgen.New(f, f, cluster, loadgen.Config{
		Groups:      64,
		GroupSize:   8,
		Workers:     8,
		Ops:         ops,
		Seed:        13,
		FlapEvery:   200,
		FlapHeal:    100,
		KillEvery:   300,
		KillRestart: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.ArmReplicaChaos(f); err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Errors != 0 {
		t.Fatalf("failed client ops under replica chaos: %+v", st)
	}
	if st.Kills == 0 || st.Flaps == 0 {
		t.Fatalf("chaos schedules never fired: %+v", st)
	}
	t.Logf("federated chaos: %+v", st)
	t.Logf("census: %+v", f.Census())
}

// TestKillMidComputeFailsOver kills the primary replica while it is
// inside a singleflight tree computation: the answer it was about to
// return is lost (kill -9 semantics) and the router must fail over and
// still answer the client.
func TestKillMidComputeFailsOver(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hook := func() {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
	}
	f := newFed(t, Config{Replicas: 3, ServiceOpts: service.Options{ComputeHook: hook}})
	// Registered after newFed's cleanup so it runs first: a failed
	// assertion must not leave the gated compute blocking f.Close.
	releaseGate := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseGate)
	ids := seedGroups(t, f, 1, 4)
	primary := primaryFor(t, f, ids[0])

	armed.Store(true)
	type res struct {
		ti  service.TreeInfo
		err error
	}
	ch := make(chan res, 1)
	go func() {
		ti, err := f.GetTree(context.Background(), ids[0])
		ch <- res{ti, err}
	}()
	<-entered // the primary is now blocked mid-compute
	if !f.KillReplica(primary) {
		t.Fatalf("KillReplica(%d) reported no change", primary)
	}
	releaseGate()
	r := <-ch
	if r.err != nil {
		t.Fatalf("GetTree with primary killed mid-compute: %v", r.err)
	}
	if r.ti.Tree == nil || r.ti.Cost <= 0 {
		t.Fatalf("failover answer invalid: %+v", r.ti)
	}
	if got := f.Census().Replicas[primary].State; got != "down" {
		t.Fatalf("primary state = %q, want down", got)
	}
}

// TestStaleReplicaRefusedUntilCaughtUp restarts a replica that missed
// failure events: its generation vector is stale, so the router must keep
// it out of rotation (and keep serving through the others) until an
// explicit catch-up replay brings it level.
func TestStaleReplicaRefusedUntilCaughtUp(t *testing.T) {
	// A huge HealthInterval selects asynchronous mode with an effectively
	// idle probe loop: nothing re-admits the replica behind our back.
	f := newFed(t, Config{Replicas: 3, HealthInterval: time.Hour})
	ids := seedGroups(t, f, 4, 4)
	ctx := context.Background()

	if !f.KillReplica(0) {
		t.Fatal("kill failed")
	}
	// Two real transitions the dead replica misses.
	if !f.FailLink(0) || !f.RestoreLink(0) {
		t.Fatal("transitions were no-ops")
	}
	if !f.RestartReplica(0) {
		t.Fatal("restart failed")
	}

	c := f.Census()
	if c.Events != 2 {
		t.Fatalf("events = %d, want 2", c.Events)
	}
	r0 := c.Replicas[0]
	if r0.State == "up" || r0.Acked == c.Events {
		t.Fatalf("restarted stale replica back in rotation without catch-up: %+v", r0)
	}
	if f.routable((*f.reps.Load())[0]) {
		t.Fatal("stale replica is routable")
	}
	// The fleet still answers every group while r0 sits out.
	for _, id := range ids {
		if _, err := f.GetTree(ctx, id); err != nil {
			t.Fatalf("GetTree(%s) with one stale replica: %v", id, err)
		}
	}

	if err := f.Readmit(0); err != nil {
		t.Fatalf("Readmit: %v", err)
	}
	r0 = f.Census().Replicas[0]
	if r0.State != "up" || r0.Acked != 2 {
		t.Fatalf("replica not caught up after re-admission: %+v", r0)
	}
	for _, id := range ids {
		if _, err := f.GetTree(ctx, id); err != nil {
			t.Fatalf("GetTree(%s) after re-admission: %v", id, err)
		}
	}
}

// TestDivergedReplicaRefused: a replica whose own generation ran AHEAD of
// the replicated log saw transitions the oracle never logged — re-
// admitting it could serve trees that contradict the oracle, so the
// router must refuse it.
func TestDivergedReplicaRefused(t *testing.T) {
	f := newFed(t, Config{Replicas: 2, HealthInterval: time.Hour})
	seedGroups(t, f, 1, 4)

	// Reach around the router and mutate replica 0's fabric directly.
	lb := (*f.reps.Load())[0].be.(*localBackend)
	if !lb.Service().FailLink(0) {
		t.Fatal("direct FailLink was a no-op")
	}
	err := f.Readmit(0)
	if err == nil {
		t.Fatal("diverged replica re-admitted")
	}
	if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
	if got := f.Census().Replicas[0].State; got != "down" {
		t.Fatalf("diverged replica state = %q, want down", got)
	}
}

// TestConcurrentFailoversServeEveryRequest hammers GetTree from multiple
// workers while two replicas are concurrently kill/restarted and a link
// flaps — with the invariant suite armed (TestMain), every served answer
// is proven oracle-identical, and no request may fail for any reason but
// a genuinely unreachable receiver or admission control. Run with -race.
func TestConcurrentFailoversServeEveryRequest(t *testing.T) {
	f := newFed(t, Config{Replicas: 3})
	ids := seedGroups(t, f, 8, 4)
	ctx := context.Background()

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	for _, idx := range []int{0, 1} {
		chaosWG.Add(1)
		go func(i int) {
			defer chaosWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.KillReplica(i)
				time.Sleep(300 * time.Microsecond)
				f.RestartReplica(i)
				time.Sleep(300 * time.Microsecond)
			}
		}(idx)
	}
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		link := topology.LinkID(f.NumLinks() - 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.FailLink(link)
			time.Sleep(500 * time.Microsecond)
			f.RestoreLink(link)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	ops := 2000
	if testing.Short() {
		ops = 400
	}
	var served atomic.Int64
	var firstErr atomic.Pointer[string]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				_, err := f.GetTree(ctx, ids[(w+i)%len(ids)])
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, steiner.ErrUnreachable): // flap cut a receiver off
				case errors.Is(err, service.ErrOverloaded): // admission control
				default:
					msg := err.Error()
					firstErr.CompareAndSwap(nil, &msg)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	if msg := firstErr.Load(); msg != nil {
		t.Fatalf("request failed during concurrent failovers: %s", *msg)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served")
	}
}

// TestHealthLoopDetectsAndReadmits fails a replica behind the router's
// back (no KillReplica bookkeeping): the probe loop must notice within
// FailThreshold probes, and once the backend is back it must be caught up
// and re-admitted without any manual intervention.
func TestHealthLoopDetectsAndReadmits(t *testing.T) {
	f := newFed(t, Config{
		Replicas:       2,
		HealthInterval: 2 * time.Millisecond,
		FailThreshold:  2,
	})
	seedGroups(t, f, 2, 4)
	lb := (*f.reps.Load())[0].be.(*localBackend)

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; census: %+v", desc, f.Census())
			}
			time.Sleep(time.Millisecond)
		}
	}

	if !lb.Kill() {
		t.Fatal("backend kill failed")
	}
	waitFor("health loop to mark r0 down", func() bool {
		return f.Census().Replicas[0].State == "down"
	})
	// An event the dead replica misses, so re-admission must replay.
	if !f.FailLink(0) {
		t.Fatal("FailLink was a no-op")
	}
	if !lb.Restart() {
		t.Fatal("backend restart failed")
	}
	waitFor("health loop to catch up and re-admit r0", func() bool {
		r0 := f.Census().Replicas[0]
		return r0.State == "up" && r0.Acked == 1
	})
	if _, err := f.GetTree(context.Background(), "fg000"); err != nil {
		t.Fatalf("GetTree after auto re-admission: %v", err)
	}
}

// TestHTTPReplicaLifecycle exercises the wire path end to end: a real
// peeld daemon (httptest) joins the federation, serves routed tree
// requests (reconstructed parent vectors must pass the oracle-identical
// check), receives replicated events, dies (server closed), and a fresh
// process re-joins with a full catch-up replay.
func TestHTTPReplicaLifecycle(t *testing.T) {
	f := newFed(t, Config{Replicas: 0, HealthInterval: time.Hour})
	ids := seedGroups(t, f, 4, 4)
	ctx := context.Background()

	bootReplica := func() *httptest.Server {
		d := service.NewDaemonFor(service.New(topology.FatTree(4), service.Options{}), service.DaemonConfig{})
		srv := httptest.NewServer(d.Handler())
		t.Cleanup(srv.Close)
		return srv
	}

	srv := bootReplica()
	replayed, err := f.FederationJoin("h0", srv.URL)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("fresh replica replayed %d events, want 0", replayed)
	}
	if got := f.Census().Replicas[0].State; got != "up" {
		t.Fatalf("joined replica state = %q, want up", got)
	}

	ti, err := f.GetTree(ctx, ids[0])
	if err != nil {
		t.Fatalf("GetTree over HTTP: %v", err)
	}
	if ti.Tree == nil || ti.Cost <= 0 || ti.Cached {
		t.Fatalf("HTTP answer invalid: %+v", ti)
	}
	if ti, err = f.GetTree(ctx, ids[0]); err != nil || !ti.Cached {
		t.Fatalf("repeat GetTree should hit the HTTP replica's cache: ti=%+v err=%v", ti, err)
	}

	// Replicate transitions over the wire; tolerate a flap that cuts a
	// group off (semantic, not a replica failure) by healing and moving on.
	flapped := topology.LinkID(-1)
	for l := 0; l < f.NumLinks() && flapped < 0; l++ {
		if !f.FailLink(topology.LinkID(l)) {
			t.Fatalf("FailLink(%d) no-op", l)
		}
		if _, err := f.GetTree(ctx, ids[0]); err == nil {
			flapped = topology.LinkID(l)
		} else if errors.Is(err, steiner.ErrUnreachable) {
			f.RestoreLink(topology.LinkID(l))
		} else {
			t.Fatalf("GetTree under flap: %v", err)
		}
	}
	if flapped < 0 {
		t.Fatal("no servable flap found")
	}
	c := f.Census()
	if r0 := c.Replicas[0]; r0.Acked != c.Events || r0.State != "up" {
		t.Fatalf("HTTP replica lagging: %+v (events=%d)", r0, c.Events)
	}

	// kill -9 the process: the next routed call fails over to a direct
	// re-peel and the router marks the replica down.
	srv.Close()
	if _, err := f.GetTree(ctx, ids[1]); err != nil {
		t.Fatalf("GetTree with dead HTTP replica: %v", err)
	}
	if got := f.Census().Replicas[0].State; got != "down" {
		t.Fatalf("dead HTTP replica state = %q, want down", got)
	}

	// A fresh process (generation 0) re-joins under the same name: the
	// router must replay the entire event log before routing to it.
	srv2 := bootReplica()
	replayed, err = f.FederationJoin("h0", srv2.URL)
	if err != nil {
		t.Fatalf("re-join: %v", err)
	}
	if want := int(f.logLen.Load()); replayed != want {
		t.Fatalf("re-join replayed %d events, want %d", replayed, want)
	}
	for _, id := range ids {
		if _, err := f.GetTree(ctx, id); err != nil {
			t.Fatalf("GetTree(%s) after re-join: %v", id, err)
		}
	}
}

// TestDirectFallbackWhenFleetIsOut: with every replica dead, the router
// degrades to re-peeling on its oracle — clients never see the outage.
func TestDirectFallbackWhenFleetIsOut(t *testing.T) {
	f := newFed(t, Config{Replicas: 2, HealthInterval: time.Hour})
	ids := seedGroups(t, f, 2, 4)
	for i := 0; i < 2; i++ {
		if !f.KillReplica(i) {
			t.Fatalf("kill %d failed", i)
		}
	}
	for _, id := range ids {
		ti, err := f.GetTree(context.Background(), id)
		if err != nil {
			t.Fatalf("GetTree(%s) with fleet out: %v", id, err)
		}
		if ti.Tree == nil || ti.Cost <= 0 {
			t.Fatalf("direct answer invalid: %+v", ti)
		}
	}
}

// TestGoldenFederatedRunReport pins the telemetry run-report of a fully
// deterministic federated load run: synchronous federation mode, one
// worker, op-count-keyed flap AND kill schedules. Regenerate with
// PEEL_UPDATE_GOLDEN=1 after intentional changes.
func TestGoldenFederatedRunReport(t *testing.T) {
	sink := telemetry.NewSink(0)
	defer telemetry.Enable(sink)()
	f := newFed(t, Config{Replicas: 3, ServiceOpts: service.Options{Seed: 1}})
	cluster := workload.NewCluster(f.Oracle().Graph(), 1)
	gen, err := loadgen.New(f, f, cluster, loadgen.Config{
		Groups:      16,
		GroupSize:   4,
		Workers:     1,
		Ops:         5000,
		Seed:        1,
		FlapEvery:   500,
		FlapHeal:    250,
		KillEvery:   1000,
		KillRestart: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.ArmReplicaChaos(f); err != nil {
		t.Fatal(err)
	}
	st := gen.Run(context.Background())
	if st.Errors != 0 {
		t.Fatalf("hard errors: %+v", st)
	}
	if st.Kills == 0 {
		t.Fatalf("kill schedule never fired: %+v", st)
	}
	f.RefreshGauges()
	var buf bytes.Buffer
	if err := sink.Report("federation-golden").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", "federation_runreport.golden.json")
	if os.Getenv("PEEL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden federated run-report updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with PEEL_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("federated run-report drifted from golden.\nIf intentional, regenerate with PEEL_UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFederatedThroughputFloor is the performance acceptance criterion
// for the federation: a healthy 3-replica fleet must clear the same 100k
// ops/sec in-process floor the single-node service is held to, with the
// cache hit rate intact. The per-answer oracle re-peel check is disarmed
// for the measurement window (it rebuilds every tree a second time under
// a lock — a verification cost, not a serving cost); every other test in
// this package runs with it armed.
func TestFederatedThroughputFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput floor not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("throughput floor needs the full op budget")
	}
	restore := invariant.Enable(nil)
	defer restore()

	run := func(client service.Client, faults loadgen.FaultInjector, g *topology.Graph) loadgen.Stats {
		t.Helper()
		gen, err := loadgen.New(client, faults, workload.NewCluster(g, 1), loadgen.Config{Ops: 200000})
		if err != nil {
			t.Fatal(err)
		}
		st := gen.Run(context.Background())
		if st.Errors != 0 {
			t.Fatalf("hard errors: %+v", st)
		}
		return st
	}

	f := newFed(t, Config{Replicas: 3, NewGraph: fatTree(8)})
	fed := run(f, f, f.Oracle().Graph())
	if fed.OpsPerSec < 100000 {
		t.Fatalf("federated throughput %.0f ops/sec below the 100k floor: %+v", fed.OpsPerSec, fed)
	}
	if fed.HitRate < 0.90 {
		t.Fatalf("federated hit rate %.3f below the 0.90 floor: %+v", fed.HitRate, fed)
	}

	single := service.New(topology.FatTree(8), service.Options{})
	defer single.Close()
	sst := run(single, single, single.Graph())
	t.Logf("federated 3-replica: %.0f ops/sec (hit %.3f); single-node: %.0f ops/sec (hit %.3f); ratio %.2f",
		fed.OpsPerSec, fed.HitRate, sst.OpsPerSec, sst.HitRate, fed.OpsPerSec/sst.OpsPerSec)
}
