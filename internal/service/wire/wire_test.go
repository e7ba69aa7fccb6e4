package wire

import (
	"bufio"
	"context"
	"net"
	"sync"
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
}

// TestSubscribersConvergeUnderFlaps is the §3.1 distribution check: 8
// subscribers across 4 groups under a scripted link-flap schedule. Every
// client must converge to the service's cached tree at the final
// generation for each of its groups, and no delivered push may regress a
// generation. Run under -race in CI.
func TestSubscribersConvergeUnderFlaps(t *testing.T) {
	h := newHarness(t, 4, Options{})
	groups := []string{"g0", "g1", "g2", "g3"}
	for i, gid := range groups {
		h.makeGroup(t, gid, i*5, 6)
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
			}
		}
		return true
	})
	for i, st := range states {
		st.mu.Lock()
		if st.regressions > 0 {
			t.Errorf("subscriber %d saw %d generation regressions", i, st.regressions)
		}
		for _, gid := range subsOf[i] {
			u := st.latest[gid]
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
	if got := h.srv.Stats().Pushes; got == 0 {
		t.Fatalf("server pushed nothing during the flap schedule")
	}
}

// TestStalledSubscriberGapAndResync drives the slow-subscriber path end
// to end with a raw-socket subscriber that deliberately stops reading:
// the server's bounded queue fills, pushes are shed, and once the
// subscriber drains its backlog it must observe a sequence gap, RESYNC,
// and converge onto the current tree.
func TestStalledSubscriberGapAndResync(t *testing.T) {
	h := newHarness(t, 4, Options{QueueDepth: 2, SockBuf: 2048, WriteTimeout: time.Minute})
	h.makeGroup(t, "stall", 0, 6)

	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(2048)
	if _, err := raw.Write(AppendGroupFrame(nil, TypeSubscribe, "stall", 0)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// Wait for the subscribe snapshot to be queued server-side, then stall:
	// flap the group's tree until the bounded queue overflows and sheds.
	waitFor(t, 5*time.Second, "subscription registered", func() bool {
		return h.srv.Stats().Groups == 1
	})
	var failed topology.LinkID = -1
	waitFor(t, 30*time.Second, "a shed push", func() bool {
		if h.srv.Stats().Shed > 0 {
			return true
		}
		if failed >= 0 {
			h.svc.RestoreLink(failed)
		}
		failed = h.flapTreeLink(t, "stall")
		time.Sleep(time.Millisecond)
		return h.srv.Stats().Shed > 0
	})
	if failed >= 0 {
		h.svc.RestoreLink(failed)
	}

	// Drain the backlog. The queued frames carry consecutive sequence
	// numbers from before the queue filled; the shed pushes left a hole
	// after them, so once the backlog dries up, one fresh flap (now that
	// the queue has room) must arrive with a visible seq jump.
	r := NewReader(bufio.NewReader(raw))
	var lastSeq uint64
	seenAny, gap, kicked := false, false, false
	overall := time.Now().Add(30 * time.Second)
	for !gap {
		if time.Now().After(overall) {
			t.Fatalf("no seq gap observed (seenAny=%v lastSeq=%d kicked=%v)", seenAny, lastSeq, kicked)
		}
		raw.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		f, err := r.ReadFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// Backlog drained with no more frames in flight: trigger the
				// post-shed push that exposes the hole.
				kicked = true
				h.svc.RestoreLink(h.flapTreeLink(t, "stall"))
				continue
			}
			t.Fatalf("draining backlog: %v (seenAny=%v lastSeq=%d)", err, seenAny, lastSeq)
		}
		if f.Type != TypeTree {
			continue
		}
		var u TreeUpdate
		if err := DecodeTree(f.Payload, &u); err != nil {
			t.Fatalf("decoding backlog frame: %v", err)
		}
		if seenAny && u.Seq > lastSeq+1 {
			gap = true
		}
		seenAny = true
		lastSeq = u.Seq
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))

	// Gap detected: RESYNC and converge on the snapshot at the current seq.
	if _, err := raw.Write(AppendGroupFrame(nil, TypeResync, "stall", 0)); err != nil {
		t.Fatalf("resync: %v", err)
	}
	var snap TreeUpdate
	for {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for resync snapshot: %v", err)
		}
		if f.Type != TypeTree {
			continue
		}
		if err := DecodeTree(f.Payload, &snap); err != nil {
			t.Fatalf("decoding snapshot: %v", err)
		}
		if snap.Resync() {
			break
		}
	}
	ti, err := h.svc.GetTree(context.Background(), "stall")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if snap.Gen != ti.Gen || !edgesMatchTree(snap.Edges, ti.Tree) {
		t.Fatalf("resync snapshot (gen %d, %d edges) does not match oracle (gen %d, cost %d)",
			snap.Gen, len(snap.Edges), ti.Gen, ti.Tree.Cost())
	}
	if h.srv.Stats().Resyncs == 0 {
		t.Fatalf("server resync counter did not move")
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

// TestServerStatsAndShedUnit pins the enqueue shed branch without TCP
// timing: a queue of depth 1 offered two messages drops exactly one.
func TestServerStatsAndShedUnit(t *testing.T) {
	s := NewServer(nil, Options{QueueDepth: 1})
	c := &conn{s: s, out: make(chan *pushMsg, 1), done: make(chan struct{})}
	c.enqueue(&pushMsg{kind: TypePong})
	c.enqueue(&pushMsg{kind: TypePong})
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed %d, want 1", got)
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
