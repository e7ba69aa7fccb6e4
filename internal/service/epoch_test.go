package service

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peel/internal/topology"
)

// TestPlanEpochPrePeelsCrossingGroups covers the announced path: planning
// an epoch recomputes crossing trees onto the post-epoch fabric while the
// doomed circuit still carries traffic, so the commit itself invalidates
// nothing.
func TestPlanEpochPrePeelsCrossingGroups(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "x", []topology.NodeID{hosts[0], hosts[4], hosts[9], hosts[13]}); err != nil {
		t.Fatal(err)
	}
	// Rack-local group in pod 3: no switch link shared with x's tree.
	if _, err := s.CreateGroup(context.Background(), "y", []topology.NodeID{hosts[14], hosts[15]}); err != nil {
		t.Fatal(err)
	}
	tx, err := s.GetTree(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	ty, err := s.GetTree(context.Background(), "y")
	if err != nil {
		t.Fatal(err)
	}
	doomed := switchLink(t, g, tx.Tree)

	n, err := s.PlanEpoch(context.Background(), []topology.LinkID{doomed})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("pre-peeled %d groups, want 1 (only x crosses)", n)
	}
	if !s.PlanActive() {
		t.Fatal("plan not active after PlanEpoch")
	}
	// The pre-peeled tree is servable now and already avoids the doomed
	// circuit, even though the circuit has not failed yet.
	pre, err := s.GetTree(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Cached {
		t.Fatal("pre-peel did not warm the cache: boundary access recomputed")
	}
	if slices.Contains(pre.Tree.Links(g), doomed) {
		t.Fatal("pre-peeled tree still crosses the to-be-removed circuit")
	}

	late := s.CommitEpoch([]topology.LinkID{doomed}, nil)
	if late != 0 {
		t.Fatalf("commit invalidated %d entries despite full pre-peel coverage", late)
	}
	if s.PlanActive() {
		t.Fatal("plan survived the commit")
	}
	// Zero cache misses at the boundary: both groups serve warm.
	for _, id := range []string{"x", "y"} {
		ti, err := s.GetTree(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !ti.Cached {
			t.Fatalf("group %s recomputed at the epoch boundary", id)
		}
	}
	yAfter, err := s.GetTree(context.Background(), "y")
	if err != nil {
		t.Fatal(err)
	}
	if yAfter.Tree != ty.Tree {
		t.Fatal("unrelated group's tree churned across the epoch")
	}
	if committed, prePeeled := s.EpochCounts(); committed != 1 || prePeeled != 1 {
		t.Fatalf("EpochCounts = (%d,%d), want (1,1)", committed, prePeeled)
	}
	if st := s.Stats(); st.EpochsCommitted != 1 || st.EpochPrePeels != 1 {
		t.Fatalf("Stats epoch fields = %+v", st)
	}
	if _, err := s.PlanEpoch(context.Background(), []topology.LinkID{topology.LinkID(g.NumLinks())}); err == nil {
		t.Fatal("PlanEpoch accepted an unknown link")
	}
}

// TestCommitWithoutPlanIsFailureDriven pins the unannounced A/B arm:
// committing with no prior plan invalidates at the boundary and the next
// access pays the recompute.
func TestCommitWithoutPlanIsFailureDriven(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "x", []topology.NodeID{hosts[0], hosts[4], hosts[9], hosts[13]}); err != nil {
		t.Fatal(err)
	}
	tx, err := s.GetTree(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	doomed := switchLink(t, g, tx.Tree)
	late := s.CommitEpoch([]topology.LinkID{doomed}, nil)
	if late != 1 {
		t.Fatalf("unannounced commit invalidated %d entries, want 1", late)
	}
	re, err := s.GetTree(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if re.Cached {
		t.Fatal("stale tree served after an unannounced switch-over")
	}
	if slices.Contains(re.Tree.Links(g), doomed) {
		t.Fatal("recomputed tree crosses the removed circuit")
	}
}

// TestLinkIDReuseAfterRestore is the regression test for the link→entries
// index across fail/restore cycles: LinkIDs are never retired (scheduled
// fabrics re-fail the same IDs every epoch), so the index must track each
// recompute exactly — re-arming entries whose new tree re-uses a restored
// ID, and dropping entries whose new tree avoids it.
func TestLinkIDReuseAfterRestore(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	// Rack-local pair: every tree for this group MUST use the two host
	// access links, so recomputes provably re-use the same LinkID.
	if _, err := s.CreateGroup(context.Background(), "local", []topology.NodeID{hosts[0], hosts[1]}); err != nil {
		t.Fatal(err)
	}
	// Cross-pod group with switch-level redundancy: recomputes avoid a
	// failed switch link, so its entry must leave that ID's index set.
	if _, err := s.CreateGroup(context.Background(), "wide", []topology.NodeID{hosts[2], hosts[6], hosts[11]}); err != nil {
		t.Fatal(err)
	}
	tl, err := s.GetTree(context.Background(), "local")
	if err != nil {
		t.Fatal(err)
	}
	access := g.LinkBetween(hosts[0], g.EdgeSwitchOf(hosts[0]))
	if !slices.Contains(tl.Tree.Links(g), access) {
		t.Fatal("rack-local tree does not use the source's access link")
	}
	tw, err := s.GetTree(context.Background(), "wide")
	if err != nil {
		t.Fatal(err)
	}
	avoided := switchLink(t, g, tw.Tree)

	// Cycle 1: fail both, recompute, restore. The wide recompute avoids
	// the switch link; the local recompute (after restore) re-uses the
	// access link — the same LinkID re-enters the index.
	s.FailLink(avoided)
	rw, err := s.GetTree(context.Background(), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if rw.Cached || slices.Contains(rw.Tree.Links(g), avoided) {
		t.Fatalf("wide recompute wrong: cached=%v", rw.Cached)
	}
	s.RestoreLink(avoided)

	s.FailLink(access)
	s.RestoreLink(access)
	rl, err := s.GetTree(context.Background(), "local")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Cached || !slices.Contains(rl.Tree.Links(g), access) {
		t.Fatalf("local recompute wrong: cached=%v", rl.Cached)
	}

	// Cycle 2: re-fail the same IDs. The local entry (tree re-uses the
	// access link) must invalidate again; the wide entry (tree avoids the
	// switch link) must stay fresh — a stale index mapping left behind by
	// cycle 1 would spuriously invalidate it.
	s.FailLink(avoided)
	ww, err := s.GetTree(context.Background(), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if !ww.Cached {
		t.Fatal("re-failing an avoided LinkID invalidated a tree that no longer crosses it")
	}
	s.RestoreLink(avoided)

	s.FailLink(access)
	s.RestoreLink(access)
	ll, err := s.GetTree(context.Background(), "local")
	if err != nil {
		t.Fatal(err)
	}
	if ll.Cached {
		t.Fatal("re-failing a re-used LinkID did not invalidate the recomputed tree")
	}
}

// TestEpochSwitchoverConvergence hammers GetTree from concurrent readers
// while epochs plan and commit, alternating a circuit swap back and forth.
// Run under -race in CI; the armed invariants (served-tree-fresh, and the
// fabric.epoch-consistent walk inside every CommitEpoch) convict any
// reader that observes a stale tree across a boundary.
func TestEpochSwitchoverConvergence(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	groups := []string{"a", "b", "c"}
	for i, id := range groups {
		m := []topology.NodeID{hosts[i], hosts[(i+5)%16], hosts[(i+10)%16]}
		if _, err := s.CreateGroup(context.Background(), id, m); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetTree(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := s.GetTree(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	l1 := switchLink(t, g, ta.Tree)
	// A second switch link not on a's current tree, to swap against.
	var l2 topology.LinkID = -1
	for id := topology.LinkID(0); int(id) < g.NumLinks(); id++ {
		l := g.Link(id)
		if g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() &&
			id != l1 && !slices.Contains(ta.Tree.Links(g), id) {
			l2 = id
			break
		}
	}
	if l2 < 0 {
		t.Fatal("no second switch link")
	}

	done := make(chan struct{})
	var gets, misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ti, err := s.GetTree(context.Background(), groups[(w+i)%len(groups)])
				if err != nil {
					t.Errorf("reader GetTree: %v", err)
					return
				}
				gets.Add(1)
				if !ti.Cached {
					misses.Add(1)
				}
			}
		}(w)
	}
	for e := 0; e < 8; e++ {
		rm, add := l1, l2
		if e%2 == 1 {
			rm, add = l2, l1
		}
		if _, err := s.PlanEpoch(context.Background(), []topology.LinkID{rm}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // readers race the open plan window
		s.CommitEpoch([]topology.LinkID{rm}, []topology.LinkID{add})
	}
	close(done)
	wg.Wait()
	if gets.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if committed, _ := s.EpochCounts(); committed != 8 {
		t.Fatalf("committed = %d, want 8", committed)
	}
}

// TestPlannedBeatsUnplannedBoundaryLatency is the reconfig CI gate: over
// identical fleets and circuit swaps, the planned arm serves every
// boundary access from the pre-peeled cache (zero misses) while the
// unplanned arm pays recomputes, so the planned p99 boundary GetTree
// latency is strictly lower.
//
// Each arm's p99 is taken over per-access minima: both arms run reps
// times, interleaved, on fresh services, and every boundary access —
// the same group at the same epoch, a hit or a miss alike in every
// repeat — keeps its fastest latency. A planned hit takes about 1 µs, so
// a single preemption or GC pause landing on two of its 120 accesses
// would otherwise decide the comparison; now it must land on the same
// access in every repeat.
func TestPlannedBeatsUnplannedBoundaryLatency(t *testing.T) {
	const nGroups, nEpochs, reps = 24, 5, 5
	run := func(planned bool) (misses int, lat []time.Duration) {
		s, g := newTestService(t, 4, Options{})
		hosts := g.Hosts()
		ids := make([]string, nGroups)
		for i := range ids {
			ids[i] = string(rune('A' + i))
			m := []topology.NodeID{hosts[i%16], hosts[(i+3)%16], hosts[(i+7)%16], hosts[(i+12)%16]}
			if _, err := s.CreateGroup(context.Background(), ids[i], m); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetTree(context.Background(), ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < nEpochs; e++ {
			// Swap a switch link off the first group's current tree: a
			// realistic epoch touches trees of many co-located groups.
			ti, err := s.GetTree(context.Background(), ids[e%nGroups])
			if err != nil {
				t.Fatal(err)
			}
			rm := switchLink(t, g, ti.Tree)
			if planned {
				if _, err := s.PlanEpoch(context.Background(), []topology.LinkID{rm}); err != nil {
					t.Fatal(err)
				}
			}
			s.CommitEpoch([]topology.LinkID{rm}, nil)
			for _, id := range ids {
				start := time.Now()
				bi, err := s.GetTree(context.Background(), id)
				d := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				lat = append(lat, d)
				if !bi.Cached {
					misses++
				}
			}
			s.RestoreLink(rm) // reset for the next epoch
		}
		return misses, lat
	}
	// fastest[i] is access i's minimum latency over the repeats so far.
	keepFastest := func(fastest, lat []time.Duration) []time.Duration {
		if fastest == nil {
			return lat
		}
		for i, d := range lat {
			fastest[i] = min(fastest[i], d)
		}
		return fastest
	}
	p99 := func(lat []time.Duration) time.Duration {
		slices.Sort(lat)
		return lat[len(lat)*99/100]
	}
	var plannedMisses, unplannedMisses int
	var plannedLat, unplannedLat []time.Duration
	for r := 0; r < reps; r++ {
		pm, pl := run(true)
		um, ul := run(false)
		if pm != 0 {
			t.Errorf("repeat %d: planned arm paid %d boundary recomputes, want 0", r, pm)
		}
		if um == 0 {
			t.Errorf("repeat %d: unplanned arm paid no boundary recomputes; the A/B is vacuous", r)
		}
		plannedMisses, unplannedMisses = pm, um
		plannedLat, unplannedLat = keepFastest(plannedLat, pl), keepFastest(unplannedLat, ul)
	}
	plannedP99, unplannedP99 := p99(plannedLat), p99(unplannedLat)
	if plannedP99 >= unplannedP99 {
		t.Errorf("eager pre-peel did not cut boundary p99: planned %v vs unplanned %v (misses %d vs %d)",
			plannedP99, unplannedP99, plannedMisses, unplannedMisses)
	}
}
