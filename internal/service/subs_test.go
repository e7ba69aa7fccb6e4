package service

import (
	"context"
	"slices"
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
