package service

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peel/internal/steiner"
	"peel/internal/topology"
)

// flapSwitchTreeLink fails one live inter-switch link on the group's
// current tree. Host access links are never flapped: a fat-tree host has
// a single uplink, so failing it disconnects the member and the refresher
// correctly abandons the group instead of publishing.
func flapSwitchTreeLink(t *testing.T, s *Service, g *topology.Graph, gid string) topology.LinkID {
	t.Helper()
	ti, err := s.GetTree(context.Background(), gid)
	if err != nil {
		t.Fatalf("GetTree %s: %v", gid, err)
	}
	tr := ti.Tree
	for _, m := range tr.Members {
		p := tr.Parent[m]
		if p == topology.None || !g.Node(p).Kind.IsSwitch() || !g.Node(m).Kind.IsSwitch() {
			continue
		}
		id := g.LinkBetween(p, m)
		if id >= 0 && !g.Link(id).Failed {
			s.FailLink(id)
			return id
		}
	}
	t.Fatalf("no live inter-switch tree link to flap for %s", gid)
	return -1
}

func recvPush(t *testing.T, ch <-chan PushUpdate) PushUpdate {
	t.Helper()
	select {
	case pu := <-ch:
		return pu
	case <-time.After(5 * time.Second):
		t.Fatalf("no push within 5s")
		return PushUpdate{}
	}
}

// TestWatchFailurePush: a failure on a watched group's tree publishes a
// recomputed tree with CauseFailure and a stamped invalidation time.
func TestWatchFailurePush(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "g0", hosts[:5]); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	before, err := s.GetTree(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	flapSwitchTreeLink(t, s, g, "g0")
	pu := recvPush(t, got)
	if pu.Group != "g0" || pu.Cause != CauseFailure {
		t.Fatalf("push = %+v, want g0/failure", pu)
	}
	if pu.Info.Gen <= before.Gen {
		t.Fatalf("pushed gen %d did not advance past %d", pu.Info.Gen, before.Gen)
	}
	if pu.InvalidatedAt.IsZero() {
		t.Fatalf("failure push has no invalidation timestamp")
	}
	if n := s.NumWatched(); n != 1 {
		t.Fatalf("NumWatched = %d, want 1", n)
	}
}

// TestWatchMembershipPush: joins and leaves on a watched group publish
// with CauseMembership and no invalidation timestamp.
func TestWatchMembershipPush(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTree(context.Background(), "g0"); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if _, err := s.Join(context.Background(), "g0", hosts[7]); err != nil {
		t.Fatalf("Join: %v", err)
	}
	pu := recvPush(t, got)
	if pu.Cause != CauseMembership {
		t.Fatalf("cause = %v, want membership", pu.Cause)
	}
	if !pu.InvalidatedAt.IsZero() {
		t.Fatalf("membership push carries an invalidation timestamp")
	}
	found := false
	for _, m := range pu.Info.Tree.Members {
		if m == hosts[7] {
			found = true
		}
	}
	if !found {
		t.Fatalf("pushed tree does not contain the joined member")
	}
}

// TestWatchSkipsUnaffectedGroup: a flap that does not touch a watched
// group's tree must not spam its watchers (publication discipline — the
// cached value is still fresh).
func TestWatchSkipsUnaffectedGroup(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	hosts := g.Hosts()
	// Pod-local group: hosts 0..1 share an edge switch, so its tree never
	// leaves the pod.
	if _, err := s.CreateGroup(context.Background(), "local", hosts[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTree(context.Background(), "local"); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("local", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Fail a link in the last pod — far from the watched tree.
	far := hosts[len(hosts)-1]
	edge := g.Node(far).ID
	_ = edge
	ti, err := s.GetTree(context.Background(), "local")
	if err != nil {
		t.Fatal(err)
	}
	var failed topology.LinkID = -1
	onTree := map[topology.LinkID]bool{}
	tr := ti.Tree
	for _, m := range tr.Members {
		if p := tr.Parent[m]; p != topology.None {
			onTree[g.LinkBetween(p, m)] = true
		}
	}
	for id := topology.LinkID(0); int(id) < g.NumLinks(); id++ {
		l := g.Link(id)
		if !l.Failed && !onTree[id] && g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
			s.FailLink(id)
			failed = id
			break
		}
	}
	if failed < 0 {
		t.Fatal("no off-tree link found")
	}
	select {
	case pu := <-got:
		t.Fatalf("unaffected group received a push: %+v", pu)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestWatchCloseStopsDelivery: after Close, further transitions publish
// nothing to the closed watch.
func TestWatchCloseStopsDelivery(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "g0", hosts[:5]); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	flapSwitchTreeLink(t, s, g, "g0")
	recvPush(t, got)
	w.Close()
	if n := s.NumWatched(); n != 0 {
		t.Fatalf("NumWatched = %d after Close, want 0", n)
	}
	flapSwitchTreeLink(t, s, g, "g0")
	select {
	case pu := <-got:
		t.Fatalf("closed watch received a push: %+v", pu)
	case <-time.After(300 * time.Millisecond):
	}
}

// failOffTreeSwitchLink fails the first live switch–switch link the tree
// does not use.
func failOffTreeSwitchLink(t *testing.T, s *Service, g *topology.Graph, tr *steiner.Tree) {
	t.Helper()
	onTree := map[topology.LinkID]bool{}
	for _, id := range tr.Links(g) {
		onTree[id] = true
	}
	for id := topology.LinkID(0); int(id) < g.NumLinks(); id++ {
		l := g.Link(id)
		if !l.Failed && !onTree[id] && g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
			s.FailLink(id)
			return
		}
	}
	t.Fatal("no off-tree switch link found")
}

// TestPushJoinOntoCachedSet: a join that turns a watched group's member
// set into one whose tree is already cached serves that tree without a
// recompute, and the watchers must still get it.
func TestPushJoinOntoCachedSet(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	ctx := context.Background()
	hosts := g.Hosts()
	h := hosts[9]
	if _, err := s.CreateGroup(ctx, "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTree(ctx, "g0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateGroup(ctx, "g1", append(slices.Clone(hosts[:4]), h)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTree(ctx, "g1"); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if _, err := s.Join(ctx, "g0", h); err != nil {
		t.Fatal(err)
	}
	pu := recvPush(t, got)
	if pu.Cause != CauseMembership {
		t.Fatalf("cause = %v, want membership", pu.Cause)
	}
	if !slices.Contains(pu.Info.Tree.Members, h) {
		t.Fatalf("pushed tree does not contain the joined host %d", h)
	}
}

// TestPushColdWatchSkipsUnrelatedFailure: a watch registered before its
// group's first tree exists gets no push for a failure off that tree.
func TestPushColdWatchSkipsUnrelatedFailure(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "cold", []topology.NodeID{hosts[0], hosts[3]}); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("cold", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ti, err := s.GetTree(context.Background(), "cold")
	if err != nil {
		t.Fatal(err)
	}
	failOffTreeSwitchLink(t, s, g, ti.Tree)
	select {
	case pu := <-got:
		t.Fatalf("failure off the tree pushed an update: %+v", pu)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestPushLeaveBackToOlderCachedSet: a leave that returns a watched group
// to a member set whose tree was cached at an older topology generation
// than the last push must still be pushed. The publication version, not
// the compute's generation, orders what the watchers hold.
func TestPushLeaveBackToOlderCachedSet(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	ctx := context.Background()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(ctx, "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}
	before, err := s.GetTree(ctx, "g0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Off the tree: the generation moves on, the cached tree stays fresh.
	failOffTreeSwitchLink(t, s, g, before.Tree)
	if _, err := s.Join(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	joined := recvPush(t, got)
	if !slices.Contains(joined.Info.Tree.Members, hosts[9]) || joined.Info.Gen <= before.Gen {
		t.Fatalf("join push: members %v at gen %d, want host %d at a gen past %d",
			joined.Info.Tree.Members, joined.Info.Gen, hosts[9], before.Gen)
	}
	if _, err := s.Leave(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	left := recvPush(t, got)
	if left.Info.Tree != before.Tree || left.Info.Gen != before.Gen {
		t.Fatalf("leave push: tree %p at gen %d, want the cached tree %p at gen %d",
			left.Info.Tree, left.Info.Gen, before.Tree, before.Gen)
	}
	if left.Version != joined.Version+1 {
		t.Fatalf("leave push version %d, want %d", left.Version, joined.Version+1)
	}
}

// TestPushSkipsSupersededAndUnchangedRefresh: a join whose refresh is
// still computing when a leave queues the next one publishes nothing (it
// is superseded), and the leave's refresh, which serves the tree the
// watcher already holds, publishes nothing either. Nothing is lost: the
// next real change is the next version.
func TestPushSkipsSupersededAndUnchangedRefresh(t *testing.T) {
	g := topology.FatTree(4)
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s := New(g, Options{ComputeHook: func() {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-gate
		}
	}})
	t.Cleanup(s.Close)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before s.Close, so a failure cannot hang it
	ctx := context.Background()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(ctx, "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}
	got := make(chan PushUpdate, 16)
	w, err := s.Watch("g0", func(pu PushUpdate) { got <- pu })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if snap := recvPush(t, got); snap.Cause != CauseSnapshot || snap.Version != 1 {
		t.Fatalf("snapshot = cause %v version %d, want snapshot version 1", snap.Cause, snap.Version)
	}

	armed.Store(true)
	if _, err := s.Join(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	<-entered // the join's refresh is computing its tree
	if _, err := s.Leave(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	release()
	select {
	case pu := <-got:
		t.Fatalf("superseded or unchanged refresh pushed: %+v", pu)
	case <-time.After(300 * time.Millisecond):
	}

	if _, err := s.Join(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	pu := recvPush(t, got)
	if pu.Version != 2 || !slices.Contains(pu.Info.Tree.Members, hosts[9]) {
		t.Fatalf("join push: version %d members %v, want version 2 with host %d", pu.Version, pu.Info.Tree.Members, hosts[9])
	}
}

// TestPushVersionsInOrderUnderEpochRace: PlanEpoch's synchronous refresh
// races the refresher (fed by membership edits) on one group. Watchers
// must see its versions 1, 2, 3… in order, none repeated or skipped. Run
// under -race in CI.
func TestPushVersionsInOrderUnderEpochRace(t *testing.T) {
	g := topology.FatTree(4)
	s := New(g, Options{})
	defer s.Close()
	ctx := context.Background()
	hosts := g.Hosts()
	if _, err := s.CreateGroup(ctx, "g0", hosts[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTree(ctx, "g0"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var versions []uint64
	w, err := s.Watch("g0", func(pu PushUpdate) {
		mu.Lock()
		versions = append(versions, pu.Version)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var err error
			if i%2 == 0 {
				_, err = s.Join(ctx, "g0", hosts[12])
			} else {
				_, err = s.Leave(ctx, "g0", hosts[12])
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ti, err := s.GetTree(ctx, "g0")
			if err != nil {
				t.Error(err)
				return
			}
			var doomed topology.LinkID = -1
			for _, id := range ti.Tree.Links(g) {
				if l := g.Link(id); g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
					doomed = id
					break
				}
			}
			if doomed < 0 {
				continue // a pod-local tree: nothing to reconfigure
			}
			if _, err := s.PlanEpoch(ctx, []topology.LinkID{doomed}); err != nil {
				t.Error(err)
				return
			}
			s.CommitEpoch([]topology.LinkID{doomed}, []topology.LinkID{doomed})
		}
	}()
	wg.Wait()

	// Let the refresher drain, then check the sequence the watcher saw.
	deadline := time.Now().Add(5 * time.Second)
	for n := -1; ; {
		time.Sleep(100 * time.Millisecond)
		mu.Lock()
		settled := len(versions) == n
		n = len(versions)
		mu.Unlock()
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pushes never settled")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(versions) < 2 {
		t.Fatalf("only %d pushes over %d rounds", len(versions), rounds)
	}
	t.Logf("%d pushes over %d rounds", len(versions), rounds)
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("push %d carried version %d, want %d (all: %v)", i, v, i+1, versions)
		}
	}
}
