package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"peel/internal/service"
	"peel/internal/topology"
)

// testHarness is one service + wire server on an ephemeral port.
type testHarness struct {
	g    *topology.Graph
	svc  *service.Service
	srv  *Server
	addr string
}

func newHarness(t testing.TB, k int, opts Options) *testHarness {
	t.Helper()
	g := topology.FatTree(k)
	svc := service.New(g, service.Options{})
	srv := NewServer(svc, opts)
	var addr string
	if err := srv.ListenAndServe("127.0.0.1:0", func(a string) { addr = a }); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return &testHarness{g: g, svc: svc, srv: srv, addr: addr}
}

// makeGroup creates a group over n distinct hosts starting at host index
// off (members[0] is the source).
func (h *testHarness) makeGroup(t testing.TB, id string, off, n int) []topology.NodeID {
	t.Helper()
	hosts := h.g.Hosts()
	members := make([]topology.NodeID, n)
	for i := range members {
		members[i] = hosts[(off+i*3)%len(hosts)]
	}
	if _, err := h.svc.CreateGroup(context.Background(), id, members); err != nil {
		t.Fatalf("CreateGroup %s: %v", id, err)
	}
	return members
}

// flapTreeLink fails an inter-switch link on the group's current tree,
// guaranteeing the next refresh actually changes it. Host access links
// are skipped: a fat-tree host has exactly one uplink, so failing it
// disconnects the member and no repaired tree exists at all.
func (h *testHarness) flapTreeLink(t testing.TB, gid string) topology.LinkID {
	t.Helper()
	ti, err := h.svc.GetTree(context.Background(), gid)
	if err != nil {
		t.Fatalf("GetTree %s: %v", gid, err)
	}
	tr := ti.Tree
	for _, m := range tr.Members {
		p := tr.Parent[m]
		if p == topology.None || !h.g.Node(p).Kind.IsSwitch() || !h.g.Node(m).Kind.IsSwitch() {
			continue
		}
		id := h.g.LinkBetween(p, m)
		if id >= 0 && !h.g.Link(id).Failed {
			h.svc.FailLink(id)
			return id
		}
	}
	t.Fatalf("no live inter-switch tree link to flap for %s", gid)
	return -1
}

func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubscribePushResubscribe covers the basic protocol conversation:
// subscribe delivers a snapshot, a failure delivers a push, unsubscribe
// stops delivery.
func TestSubscribePushBasics(t *testing.T) {
	h := newHarness(t, 4, Options{})
	h.makeGroup(t, "g0", 0, 5)

	c, err := Dial(h.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("g0"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	snap := <-c.Updates()
	if snap.Err != nil || !snap.Resync() || snap.Group != "g0" {
		t.Fatalf("first update is not the subscribe snapshot: %+v", snap)
	}
	if len(snap.Edges) == 0 {
		t.Fatalf("snapshot has no edges")
	}

	h.flapTreeLink(t, "g0")
	var push TreeUpdate
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool {
		push = u
		return u.FailureDriven()
	})
	if push.Gen <= snap.Gen {
		t.Fatalf("push gen %d did not advance past snapshot gen %d", push.Gen, snap.Gen)
	}
	if push.Seq != snap.Seq+1 {
		t.Fatalf("push seq %d, want %d", push.Seq, snap.Seq+1)
	}

	// Subscribing to a nonexistent group answers an ERROR update.
	if err := c.Subscribe("nope"); err != nil {
		t.Fatalf("Subscribe nope: %v", err)
	}
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool { return u.Err != nil })
	if c.Stats().Errors == 0 {
		t.Fatalf("error counter did not move")
	}
}

func waitForUpdate(t testing.TB, c *Client, d time.Duration, match func(TreeUpdate) bool) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case u, ok := <-c.Updates():
			if !ok {
				t.Fatalf("updates channel closed while waiting")
			}
			if match(u) {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for a matching update")
		}
	}
}

// subscriberState tracks one client's view for the convergence test.
type subscriberState struct {
	mu          sync.Mutex
	latest      map[string]TreeUpdate
	regressions int
	seqSkips    int // pushes past the group's previous seq + 1: versions the server shed
	snapshots   int // resync-flagged frames: one per SUBSCRIBE, no gaps here
}

// TestSubscribersConvergeUnderFlaps is the §3.1 distribution check: 8
// subscribers across 4 groups under a scripted link-flap schedule. Every
// client must converge to the service's last publication — its version
// and its tree, which is also the cached tree at the final generation —
// for each of its groups; each push must carry a higher seq than the
// last, skipping versions only where the server shed them, and no
// delivered push may regress a generation. Run under -race in CI.
func TestSubscribersConvergeUnderFlaps(t *testing.T) {
	h := newHarness(t, 4, Options{})
	groups := []string{"g0", "g1", "g2", "g3"}
	for i, gid := range groups {
		h.makeGroup(t, gid, i*5, 6)
	}

	// The service's record: a watch of every group, primed by a snapshot,
	// holds its last publication.
	var pubMu sync.Mutex
	lastPub := map[string]service.PushUpdate{}
	for _, gid := range groups {
		w, err := h.svc.Watch(gid, func(pu service.PushUpdate) {
			pubMu.Lock()
			lastPub[pu.Group] = pu
			pubMu.Unlock()
		})
		if err != nil {
			t.Fatalf("Watch %s: %v", gid, err)
		}
		defer w.Close()
		if err := w.Snapshot(context.Background()); err != nil {
			t.Fatalf("Snapshot %s: %v", gid, err)
		}
	}

	const nSubs = 8
	clients := make([]*Client, nSubs)
	states := make([]*subscriberState, nSubs)
	subsOf := make([][]string, nSubs)
	var wg sync.WaitGroup
	for i := 0; i < nSubs; i++ {
		c, err := Dial(h.addr, ClientOptions{})
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c
		states[i] = &subscriberState{latest: map[string]TreeUpdate{}}
		subsOf[i] = []string{groups[i%len(groups)], groups[(i+1)%len(groups)]}
		for _, gid := range subsOf[i] {
			if err := c.Subscribe(gid); err != nil {
				t.Fatalf("Subscribe %d %s: %v", i, gid, err)
			}
		}
		wg.Add(1)
		go func(c *Client, st *subscriberState) {
			defer wg.Done()
			for u := range c.Updates() {
				if u.Err != nil {
					continue
				}
				st.mu.Lock()
				if last, ok := st.latest[u.Group]; ok && u.Gen < last.Gen {
					st.regressions++
				}
				if last, ok := st.latest[u.Group]; ok && !u.Resync() && u.Seq > last.Seq+1 {
					st.seqSkips++
				}
				if u.Resync() {
					st.snapshots++
				}
				st.latest[u.Group] = u
				st.mu.Unlock()
			}
		}(c, states[i])
	}

	// Wait for every subscriber's snapshots so the flap storm starts from
	// a primed state.
	waitFor(t, 5*time.Second, "subscribe snapshots", func() bool {
		for i, st := range states {
			st.mu.Lock()
			n := len(st.latest)
			st.mu.Unlock()
			if n < len(subsOf[i]) {
				return false
			}
		}
		return true
	})

	// Scripted schedule: 12 rounds, each failing one live link on a
	// group's current tree, healing the previous round's link first.
	var failed topology.LinkID = -1
	for round := 0; round < 12; round++ {
		if failed >= 0 {
			h.svc.RestoreLink(failed)
		}
		failed = h.flapTreeLink(t, groups[round%len(groups)])
		time.Sleep(5 * time.Millisecond)
	}
	if failed >= 0 {
		h.svc.RestoreLink(failed)
	}

	// Convergence: every subscriber's latest tree per group must reach the
	// service's cached generation and match its edges exactly.
	oracle := map[string]service.TreeInfo{}
	for _, gid := range groups {
		ti, err := h.svc.GetTree(context.Background(), gid)
		if err != nil {
			t.Fatalf("oracle GetTree %s: %v", gid, err)
		}
		oracle[gid] = ti
	}
	waitFor(t, 10*time.Second, "subscriber convergence", func() bool {
		for i, st := range states {
			for _, gid := range subsOf[i] {
				st.mu.Lock()
				u, ok := st.latest[gid]
				st.mu.Unlock()
				if !ok || u.Gen < oracle[gid].Gen {
					return false
				}
				pubMu.Lock()
				pub := lastPub[gid]
				pubMu.Unlock()
				if u.Seq != pub.Version {
					return false
				}
			}
		}
		return true
	})
	skips := 0
	for i, st := range states {
		st.mu.Lock()
		if st.regressions > 0 {
			t.Errorf("subscriber %d saw %d generation regressions", i, st.regressions)
		}
		skips += st.seqSkips
		if st.snapshots != len(subsOf[i]) {
			t.Errorf("subscriber %d got %d snapshots for %d subscriptions", i, st.snapshots, len(subsOf[i]))
		}
		if cs := clients[i].Stats(); cs.Regressions+cs.Dropped != 0 || cs.Gaps != int64(st.seqSkips) {
			t.Errorf("subscriber %d client stats %+v, want no regressions or drops and %d gaps", i, cs, st.seqSkips)
		}
		for _, gid := range subsOf[i] {
			u := st.latest[gid]
			pubMu.Lock()
			pub := lastPub[gid]
			pubMu.Unlock()
			if u.Seq != pub.Version || u.Source != pub.Info.Tree.Source || !edgesMatchTree(u.Edges, pub.Info.Tree) {
				t.Errorf("subscriber %d group %s at seq %d (%d edges), last publication version %d (cost %d)",
					i, gid, u.Seq, len(u.Edges), pub.Version, pub.Info.Tree.Cost())
			}
			ti := oracle[gid]
			if u.Gen != ti.Gen {
				t.Errorf("subscriber %d group %s at gen %d, oracle %d", i, gid, u.Gen, ti.Gen)
				continue
			}
			if u.Source != ti.Tree.Source || !edgesMatchTree(u.Edges, ti.Tree) {
				t.Errorf("subscriber %d group %s tree differs from oracle at gen %d", i, gid, u.Gen)
			}
		}
		st.mu.Unlock()
	}
	if st := h.srv.Stats(); st.Pushes == 0 || int64(skips) > st.Shed {
		t.Fatalf("server stats %+v: want pushes, and a shed version behind each of the %d skips", st, skips)
	}
}

// pipeListener is an in-memory net.Listener: dial hands Accept the server
// end of a net.Pipe. A pipe has no buffer, so a server write blocks until
// the subscriber reads it. Its first fails Accepts return EMFILE.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	fails atomic.Int32
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "pipe", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial connects a client end, failing the test if Serve stopped
// accepting; served carries Serve's return.
func (l *pipeListener) dial(t *testing.T, served <-chan error) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
		t.Cleanup(func() { cli.Close() })
		return cli
	case err := <-served:
		t.Fatalf("Serve returned %v; the listener no longer accepts", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the listener did not accept within 10s")
	}
	return nil
}

// servePipe serves svc's wire protocol on a fresh pipeListener.
func servePipe(t *testing.T, svc *service.Service, opts Options, fails int32) (*Server, *pipeListener, <-chan error) {
	t.Helper()
	srv := NewServer(svc, opts)
	ln := newPipeListener()
	ln.fails.Store(fails)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv, ln, served
}

// rawSub is a subscriber that reads frames off its connection by hand.
type rawSub struct {
	nc net.Conn
	r  *Reader
}

func subscribeRaw(t *testing.T, nc net.Conn, gid string) *rawSub {
	t.Helper()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(AppendGroupFrame(nil, TypeSubscribe, gid)); err != nil {
		t.Fatalf("subscribe %s: %v", gid, err)
	}
	return &rawSub{nc: nc, r: NewReader(bufio.NewReader(nc))}
}

// next reads the next TREE frame.
func (s *rawSub) next() (TreeUpdate, error) {
	s.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := s.r.ReadFrame()
	if err != nil {
		return TreeUpdate{}, err
	}
	if f.Type != TypeTree {
		return TreeUpdate{}, fmt.Errorf("unexpected frame type %d", f.Type)
	}
	var u TreeUpdate
	return u, DecodeTree(f.Payload, &u)
}

// TestStalledSubscriberGetsLatest drives the latest-wins contract over
// unbuffered pipes: subscriber A reads its snapshot and stalls while 20
// membership edits publish. Subscriber B keeps up meanwhile, on strictly
// increasing versions up to the latest. When A resumes it receives at
// most the frame its writer was blocked on, then the latest version,
// which matches the service's tree; the versions in between were shed,
// and nothing asked for a re-sync.
func TestStalledSubscriberGetsLatest(t *testing.T) {
	g := topology.FatTree(4)
	svc := service.New(g, service.Options{})
	t.Cleanup(svc.Close)
	srv, ln, served := servePipe(t, svc, Options{WriteTimeout: time.Minute}, 0)
	h := &testHarness{g: g, svc: svc, srv: srv}
	members := h.makeGroup(t, "stall", 0, 4)
	ctx := context.Background()

	// The service's record of each publication's version.
	versions := make(chan uint64, 64)
	w, err := svc.Watch("stall", func(pu service.PushUpdate) { versions <- pu.Version })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	a := subscribeRaw(t, ln.dial(t, served), "stall")
	snapA, err := a.next()
	if err != nil || !snapA.Resync() {
		t.Fatalf("A's snapshot: %+v, %v", snapA, err)
	}
	b := subscribeRaw(t, ln.dial(t, served), "stall")
	snapB, err := b.next()
	if err != nil || !snapB.Resync() || snapB.Seq != snapA.Seq {
		t.Fatalf("B's snapshot: %+v, %v (A's at seq %d)", snapB, err, snapA.Seq)
	}
	type seen struct {
		u   TreeUpdate
		err error
	}
	bSaw := make(chan seen, 64)
	go func() {
		for {
			u, err := b.next()
			bSaw <- seen{u, err}
			if err != nil {
				return
			}
		}
	}()

	// 20 edits, each awaited as a publication: a host not in the group
	// joins and leaves in turn.
	var extra topology.NodeID = -1
	for _, host := range g.Hosts() {
		if !slices.Contains(members, host) {
			extra = host
			break
		}
	}
	latest := snapA.Seq
	for e := 0; e < 20; e++ {
		var err error
		if e%2 == 0 {
			_, err = svc.Join(ctx, "stall", extra)
		} else {
			_, err = svc.Leave(ctx, "stall", extra)
		}
		if err != nil {
			t.Fatalf("edit %d: %v", e, err)
		}
		select {
		case v := <-versions:
			if v != latest+1 {
				t.Fatalf("edit %d published version %d, want %d", e, v, latest+1)
			}
			latest = v
		case <-time.After(10 * time.Second):
			t.Fatalf("edit %d published nothing", e)
		}
	}
	// publish runs every watcher's callback under the watch lock, and
	// NumWatched takes that lock: once it returns, every cell holds the
	// latest version, not only the watch that reported it.
	svc.NumWatched()

	// B, never stalled, climbs to the latest version while A is stalled.
	last := snapB.Seq
	for last < latest {
		s := <-bSaw
		if s.err != nil {
			t.Fatalf("B: %v", s.err)
		}
		if s.u.Seq <= last || s.u.Resync() {
			t.Fatalf("B got seq %d (resync %v) after %d", s.u.Seq, s.u.Resync(), last)
		}
		last = s.u.Seq
	}

	// A resumes: at most the frame its writer was blocked on, then the
	// latest version.
	var got []TreeUpdate
	for len(got) == 0 || got[len(got)-1].Seq < latest {
		u, err := a.next()
		if err != nil {
			t.Fatalf("A after %d frames: %v", len(got), err)
		}
		got = append(got, u)
	}
	if len(got) > 2 {
		seqs := make([]uint64, len(got))
		for i, u := range got {
			seqs[i] = u.Seq
		}
		t.Fatalf("A received seqs %v after its stall, want at most one before %d", seqs, latest)
	}
	final := got[len(got)-1]
	ti, err := svc.GetTree(ctx, "stall")
	if err != nil {
		t.Fatal(err)
	}
	if final.Seq != latest || final.Resync() || final.Gen != ti.Gen || !edgesMatchTree(final.Edges, ti.Tree) {
		t.Fatalf("A's last frame (seq %d, gen %d, %d edges, resync %v) is not the latest publication (version %d, gen %d, cost %d)",
			final.Seq, final.Gen, len(final.Edges), final.Resync(), latest, ti.Gen, ti.Tree.Cost())
	}
	if st := srv.Stats(); st.Shed < 1 || st.Resyncs != 0 {
		t.Fatalf("server stats %+v, want shed ≥ 1 and no resyncs", st)
	}
}

// TestServeRetriesFailedAccept: a failed accept (EMFILE during a
// connection burst) does not end the listener; the next connection is
// still served, and Serve returns nil on Close.
func TestServeRetriesFailedAccept(t *testing.T) {
	g := topology.FatTree(4)
	svc := service.New(g, service.Options{})
	t.Cleanup(svc.Close)
	srv, ln, served := servePipe(t, svc, Options{}, 1)
	h := &testHarness{g: g, svc: svc, srv: srv}
	h.makeGroup(t, "g0", 0, 4)
	sub := subscribeRaw(t, ln.dial(t, served), "g0")
	if u, err := sub.next(); err != nil || !u.Resync() {
		t.Fatalf("snapshot after a failed accept: %+v, %v", u, err)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v on Close, want nil", err)
	}
}

// TestClientReconnectAfterServerRestart kills the wire server mid
// subscription and restarts one on the same service; a Reconnect client
// must redial, re-subscribe, and keep receiving pushes.
func TestClientReconnectAfterServerRestart(t *testing.T) {
	g := topology.FatTree(4)
	svc := service.New(g, service.Options{})
	defer svc.Close()
	srv1 := NewServer(svc, Options{})
	var addr string
	if err := srv1.ListenAndServe("127.0.0.1:0", func(a string) { addr = a }); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	hosts := g.Hosts()
	members := []topology.NodeID{hosts[0], hosts[3], hosts[6], hosts[9]}
	if _, err := svc.CreateGroup(context.Background(), "g0", members); err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}

	c, err := Dial(addr, ClientOptions{Reconnect: true, ReconnectBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("g0"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool { return u.Err == nil })

	srv1.Close()

	// Rebind the same address with a fresh server (same service).
	srv2 := NewServer(svc, Options{})
	var relisten error
	waitFor(t, 5*time.Second, "rebind", func() bool {
		relisten = srv2.ListenAndServe(addr, nil)
		return relisten == nil
	})
	defer srv2.Close()

	// The client must re-subscribe on its own and see the re-subscribe
	// snapshot, then live pushes again.
	waitForUpdate(t, c, 10*time.Second, func(u TreeUpdate) bool { return u.Err == nil && u.Resync() })
	if c.Stats().Reconnects == 0 {
		t.Fatalf("client did not record a reconnect")
	}
	ti, err := svc.GetTree(context.Background(), "g0")
	if err != nil {
		t.Fatalf("GetTree: %v", err)
	}
	flapped := false
	for _, m := range ti.Tree.Members {
		p := ti.Tree.Parent[m]
		if p == topology.None || !g.Node(p).Kind.IsSwitch() || !g.Node(m).Kind.IsSwitch() {
			continue
		}
		if id := g.LinkBetween(p, m); id >= 0 && !g.Link(id).Failed {
			svc.FailLink(id)
			flapped = true
			break
		}
	}
	if !flapped {
		t.Fatalf("no inter-switch tree link to flap")
	}
	waitForUpdate(t, c, 10*time.Second, func(u TreeUpdate) bool { return u.Err == nil && u.FailureDriven() })
}

// TestCellCoalescing pins a subscription's cell without sockets: with the
// writer parked, a drain sends the cell's latest publication, once per
// owed snapshot and flagged FlagResync if any is owed, and every version
// a newer one replaced unsent is shed.
func TestCellCoalescing(t *testing.T) {
	g := topology.FatTree(4)
	svc := service.New(g, service.Options{})
	defer svc.Close()
	if _, err := svc.CreateGroup(context.Background(), "g", g.Hosts()[:4]); err != nil {
		t.Fatal(err)
	}
	ti, err := svc.GetTree(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	push := func(v uint64) service.PushUpdate {
		return service.PushUpdate{Group: "g", Info: ti, Cause: service.CauseFailure, Version: v}
	}
	snap := func(v uint64) service.PushUpdate {
		return service.PushUpdate{Group: "g", Info: ti, Cause: service.CauseSnapshot, Version: v}
	}
	type frame struct {
		seq    uint64
		resync bool
	}
	cases := []struct {
		name   string
		stores []service.PushUpdate
		want   []frame
		shed   int64
	}{
		{"versions 1 to 5 coalesce", []service.PushUpdate{push(1), push(2), push(3), push(4), push(5)}, []frame{{5, false}}, 4},
		{"a push after a snapshot is sent as the snapshot", []service.PushUpdate{snap(3), push(4)}, []frame{{4, true}}, 1},
		{"an unsent push does not swallow a snapshot", []service.PushUpdate{push(3), snap(3)}, []frame{{3, true}}, 0},
		{"each SUBSCRIBE is answered", []service.PushUpdate{snap(3), snap(3)}, []frame{{3, true}, {3, true}}, 0},
	}
	for _, tc := range cases {
		sb := &sub{}
		c := &conn{s: NewServer(svc, Options{}), wake: make(chan struct{}, 1), subs: map[string]*sub{"g": sb}}
		for _, pu := range tc.stores {
			c.store(sb, pu)
		}
		buf, _ := c.drain()
		var got []frame
		for _, f := range readAll(t, buf) {
			var u TreeUpdate
			if err := DecodeTree(f.Payload, &u); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = append(got, frame{u.Seq, u.Resync()})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: sent %v, want %v", tc.name, got, tc.want)
		}
		if shed := c.s.Stats().Shed; shed != tc.shed {
			t.Errorf("%s: shed %d, want %d", tc.name, shed, tc.shed)
		}
		if buf, _ := c.drain(); len(buf) != 0 {
			t.Errorf("%s: a second drain sent %d bytes", tc.name, len(buf))
		}
	}
}

// recordConn counts the bytes written to it.
type recordConn struct {
	net.Conn
	wrote int
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.wrote += len(p)
	return len(p), nil
}

// TestClientSeqCheck pins the client's one seq check without a socket: a
// snapshot anchors, any higher seq is delivered (a jump counts a gap and
// writes nothing to the server), a repeated or older seq is dropped as a
// regression whatever its gen, and a snapshot re-anchors even below the
// last seq.
func TestClientSeqCheck(t *testing.T) {
	rc := &recordConn{}
	c := &Client{conn: rc, groups: map[string]*groupTrack{"g": {}}, updates: make(chan TreeUpdate, 8)}
	steps := []struct {
		seq, gen  uint64
		flags     uint8
		delivered bool
	}{
		{3, 5, FlagResync, true},
		{4, 2, 0, true},  // +1; a lower gen orders nothing
		{7, 9, 0, true},  // +3: versions 5 and 6 were coalesced away
		{7, 9, 0, false}, // repeated seq
		{2, 9, 0, false}, // older seq
		{1, 0, FlagResync, true},
		{2, 0, 0, true},
	}
	for i, st := range steps {
		before := c.Stats().Updates
		c.onTree(TreeUpdate{Group: "g", Seq: st.seq, Gen: st.gen, Flags: st.flags})
		if got := c.Stats().Updates > before; got != st.delivered {
			t.Fatalf("step %d (seq %d): delivered %v, want %v", i, st.seq, got, st.delivered)
		}
	}
	if st := c.Stats(); st.Regressions != 2 || st.Gaps != 1 || rc.wrote != 0 {
		t.Fatalf("stats %+v, %d bytes written, want 2 regressions, 1 gap and nothing written", st, rc.wrote)
	}
}

// TestWatchMembershipPush covers the membership-driven publish path: a
// Join on a watched group pushes an updated tree without any failure.
func TestWatchMembershipPush(t *testing.T) {
	h := newHarness(t, 4, Options{})
	members := h.makeGroup(t, "g0", 0, 4)
	c, err := Dial(h.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("g0"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	snap := <-c.Updates()
	if snap.Err != nil {
		t.Fatalf("snapshot: %v", snap.Err)
	}

	// Join a host not yet in the group.
	hosts := h.g.Hosts()
	var joined topology.NodeID = -1
pick:
	for _, cand := range hosts {
		for _, m := range members {
			if m == cand {
				continue pick
			}
		}
		joined = cand
		break
	}
	if _, err := h.svc.Join(context.Background(), "g0", joined); err != nil {
		t.Fatalf("Join: %v", err)
	}
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool {
		if u.Err != nil || u.FailureDriven() {
			return false
		}
		for _, e := range u.Edges {
			if e[1] == joined {
				return true
			}
		}
		return false
	})
}

// TestWatchLeaveBackPush is the wire form of the service's
// TestPushLeaveBackToOlderCachedSet: a leave back onto a member set whose
// tree was cached at an older generation reaches the subscriber as the
// group's next seq, although its gen is lower than the join push's.
func TestWatchLeaveBackPush(t *testing.T) {
	h := newHarness(t, 4, Options{})
	ctx := context.Background()
	hosts := h.g.Hosts()
	extra := hosts[9]
	if _, err := h.svc.CreateGroup(ctx, "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(h.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("g0"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	snap := <-c.Updates()
	if snap.Err != nil || !snap.Resync() {
		t.Fatalf("first update is not the subscribe snapshot: %+v", snap)
	}
	onTree := map[topology.LinkID]bool{}
	for _, e := range snap.Edges {
		onTree[h.g.LinkBetween(e[0], e[1])] = true
	}
	failed := false
	for id := topology.LinkID(0); int(id) < h.g.NumLinks() && !failed; id++ {
		l := h.g.Link(id)
		if !onTree[id] && h.g.Node(l.A).Kind.IsSwitch() && h.g.Node(l.B).Kind.IsSwitch() {
			h.svc.FailLink(id)
			failed = true
		}
	}
	if !failed {
		t.Fatal("no off-tree switch link found")
	}

	hasExtra := func(u TreeUpdate) bool {
		for _, e := range u.Edges {
			if e[1] == extra {
				return true
			}
		}
		return false
	}
	if _, err := h.svc.Join(ctx, "g0", extra); err != nil {
		t.Fatal(err)
	}
	var joined, left TreeUpdate
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool { joined = u; return u.Err == nil && hasExtra(u) })
	if _, err := h.svc.Leave(ctx, "g0", extra); err != nil {
		t.Fatal(err)
	}
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool { left = u; return u.Err == nil && !hasExtra(u) })
	if left.Seq != joined.Seq+1 || left.Gen != snap.Gen || left.Gen >= joined.Gen {
		t.Fatalf("leave push seq %d gen %d, want seq %d at the snapshot's gen %d (join push gen %d)",
			left.Seq, left.Gen, joined.Seq+1, snap.Gen, joined.Gen)
	}
	if cs := c.Stats(); cs.Gaps+cs.Regressions != 0 {
		t.Fatalf("client stats %+v, want no gaps or regressions", cs)
	}
}

// TestSubscribeRetryAfterGroupAppears: a reconnect-mode client whose
// subscription is answered "no such group" keeps retrying and picks the
// subscription up once the group exists — the e2e daemon-restart flow,
// where group re-creation races the client's re-subscribe.
func TestSubscribeRetryAfterGroupAppears(t *testing.T) {
	h := newHarness(t, 4, Options{})
	c, err := Dial(h.addr, ClientOptions{Reconnect: true, ReconnectBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("late"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool { return u.Err != nil })
	h.makeGroup(t, "late", 2, 5)
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool {
		return u.Err == nil && u.Resync() && u.Group == "late"
	})
}

// TestPushColdSubscribeSkipsUnrelatedFailure: SUBSCRIBE to a group whose
// tree was never computed, then fail a link off the snapshot's tree. The
// failure does not touch the subscriber's tree, so no TREE frame follows.
func TestPushColdSubscribeSkipsUnrelatedFailure(t *testing.T) {
	h := newHarness(t, 4, Options{})
	h.makeGroup(t, "cold", 0, 2)
	c, err := Dial(h.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("cold"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	snap := <-c.Updates()
	if snap.Err != nil || !snap.Resync() {
		t.Fatalf("first update is not the subscribe snapshot: %+v", snap)
	}
	onTree := map[topology.LinkID]bool{}
	for _, e := range snap.Edges {
		onTree[h.g.LinkBetween(e[0], e[1])] = true
	}
	var failed topology.LinkID = -1
	for id := topology.LinkID(0); int(id) < h.g.NumLinks(); id++ {
		l := h.g.Link(id)
		if !onTree[id] && h.g.Node(l.A).Kind.IsSwitch() && h.g.Node(l.B).Kind.IsSwitch() {
			failed = id
			break
		}
	}
	if failed < 0 {
		t.Fatal("no off-tree switch link found")
	}
	h.svc.FailLink(failed)
	select {
	case u := <-c.Updates():
		t.Fatalf("failure off the subscribed tree sent a frame: %+v", u)
	case <-time.After(300 * time.Millisecond):
	}
}
