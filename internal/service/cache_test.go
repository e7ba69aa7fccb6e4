package service

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"peel/internal/topology"
)

// TestCacheClockReferencedEntrySurvivesOneSweep: the clock hand gives a
// referenced entry a second chance and evicts the unreferenced one; the
// survivor's bit is cleared on the way, so the next insert takes it.
func TestCacheClockReferencedEntrySurvivesOneSweep(t *testing.T) {
	c := newTreeCache(1, 2)
	a, _ := c.ensure("a")
	b, _ := c.ensure("b")
	a.ref.Store(false)
	b.ref.Store(false)
	a.touch()
	if _, evicted := c.ensure("c"); !evicted {
		t.Fatal("insert at cap did not evict")
	}
	if c.lookup("a") != a || c.lookup("b") != nil || !b.dead.Load() {
		t.Fatalf("want b evicted and a kept: a=%v b=%v", c.lookup("a") != nil, c.lookup("b") != nil)
	}
	if _, evicted := c.ensure("d"); !evicted {
		t.Fatal("second insert at cap did not evict")
	}
	if c.lookup("a") != nil || !a.dead.Load() || c.lookup("c") == nil {
		t.Fatal("a kept its second chance past a second sweep")
	}
	checkLinkIndex(t, c, nil)
}

// gatedService returns a one-shard service whose next compute, once
// gate is set, blocks in ComputeHook: entered fires when it is held, and
// release lets it finish. A test that fails first releases it on
// cleanup, before the service's Close waits for the compute.
func gatedService(t *testing.T, cacheCap int) (s *Service, hosts []topology.NodeID, gate *atomic.Bool, entered chan struct{}, release func()) {
	t.Helper()
	gate = new(atomic.Bool)
	entered = make(chan struct{}, 1)
	released := make(chan struct{})
	s, g := newTestService(t, 4, Options{Shards: 1, CacheCap: cacheCap, ComputeHook: func() {
		if gate.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-released
		}
	}})
	release = sync.OnceFunc(func() { close(released) })
	t.Cleanup(release)
	return s, g.Hosts(), gate, entered, release
}

// startGated starts a TreeFor that blocks in its compute and returns the
// channel its result arrives on.
func startGated(t *testing.T, s *Service, members []topology.NodeID, gate *atomic.Bool, entered chan struct{}) chan TreeInfo {
	t.Helper()
	done := make(chan TreeInfo, 1)
	gate.Store(true)
	go func() {
		ti, err := s.TreeFor(context.Background(), members)
		if err != nil {
			t.Error(err)
		}
		done <- ti
	}()
	<-entered
	return done
}

// TestCacheClockNeverEvictsInflightEntry: an entry whose compute is in
// flight (held in ComputeHook) is passed over by every sweep; the idle
// entries around it go instead, and it is served from cache afterwards.
func TestCacheClockNeverEvictsInflightEntry(t *testing.T) {
	s, hosts, gate, entered, release := gatedService(t, 2)
	ctx := context.Background()
	a := []topology.NodeID{hosts[0], hosts[1]}
	done := startGated(t, s, a, gate, entered)
	for i, set := range [][]topology.NodeID{{hosts[2], hosts[3]}, {hosts[4], hosts[5]}, {hosts[6], hosts[7]}} {
		if _, err := s.TreeFor(ctx, set); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().CacheEntries; n != 2 {
			t.Fatalf("after insert %d: %d entries, want 2 at cap", i, n)
		}
	}
	release()
	if ti := <-done; ti.Cached || ti.Tree == nil {
		t.Fatalf("gated compute: cached=%v tree=%v", ti.Cached, ti.Tree != nil)
	}
	if ti, err := s.TreeFor(ctx, a); err != nil || !ti.Cached {
		t.Fatalf("in-flight entry was evicted: cached=%v err=%v", ti.Cached, err)
	}
	checkLinkIndex(t, s.cache, nil)
}

// TestCacheClockGrowsPastCapWhenAllBusy: with every entry's compute in
// flight, an insert at cap admits the new entry without evicting.
func TestCacheClockGrowsPastCapWhenAllBusy(t *testing.T) {
	s, hosts, gate, entered, release := gatedService(t, 1)
	ctx := context.Background()
	a := []topology.NodeID{hosts[0], hosts[1]}
	done := startGated(t, s, a, gate, entered)
	if _, err := s.TreeFor(ctx, []topology.NodeID{hosts[2], hosts[3]}); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().CacheEntries; n != 2 {
		t.Fatalf("%d entries, want 2: the shard must grow past cap 1", n)
	}
	release()
	<-done
	if ti, err := s.TreeFor(ctx, a); err != nil || !ti.Cached {
		t.Fatalf("busy entry was evicted: cached=%v err=%v", ti.Cached, err)
	}
	checkLinkIndex(t, s.cache, nil)
}

// TestLinkIndexSkipsEvictedEntry pins the orphan leak: an entry evicted
// before its compute publishes must not enter the link index, or a later
// failure counts it (and bumps its shard's generation) and its links are
// never unindexed.
func TestLinkIndexSkipsEvictedEntry(t *testing.T) {
	c := newTreeCache(1, 1)
	e1, _ := c.ensure("e1")
	if _, evicted := c.ensure("e2"); !evicted {
		t.Fatal("insert at cap 1 did not evict")
	}
	links := []topology.LinkID{3, 7}
	c.index(e1, links)
	e1.val.Store(&treeVal{})
	if n := c.invalidateLink(links[0]); n != 0 {
		t.Fatalf("invalidateLink counted %d entries, want 0: the evicted entry was indexed", n)
	}
	for id, l := range c.byLink {
		for _, r := range l {
			if r.e == e1 {
				t.Fatalf("evicted entry left in byLink[%d]", id)
			}
		}
	}
	if gen := c.shards[0].gen.Load(); gen != 0 {
		t.Fatalf("shard generation bumped to %d by an orphan", gen)
	}
}

// TestLinkIndexMatchesModel runs seeded random steps — insert (evicting
// at cap), index, re-index, unindex, touch, busy toggles, and indexing
// an already evicted entry — against a plain map model, checking every
// byLink slice and pos back-pointer after each step.
func TestLinkIndexMatchesModel(t *testing.T) {
	const cacheCap, numLinks, steps = 6, 10, 600
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTreeCache(1, cacheCap)
		model := map[*entry][]topology.LinkID{}
		var live, evicted []*entry
		randLinks := func() []topology.LinkID {
			l := make([]topology.LinkID, rng.Intn(5))
			for i := range l {
				l[i] = topology.LinkID(rng.Intn(numLinks)) // repeats allowed
			}
			return l
		}
		for step := 0; step < steps; step++ {
			op := rng.Intn(7)
			if len(live) == 0 {
				op = 0
			}
			var e *entry
			if len(live) > 0 {
				e = live[rng.Intn(len(live))]
			}
			switch op {
			case 0: // insert
				n, _ := c.ensure(fmt.Sprintf("k%d", step))
				kept := live[:0]
				for _, x := range live {
					if x.dead.Load() {
						delete(model, x)
						evicted = append(evicted, x)
					} else {
						kept = append(kept, x)
					}
				}
				live = append(kept, n)
			case 1, 2: // index or re-index
				l := randLinks()
				c.index(e, l)
				model[e] = l
			case 3:
				c.unindex(e)
				delete(model, e)
			case 4:
				e.touch()
			case 5: // toggle a compute in flight
				e.mu.Lock()
				if e.inflight == nil {
					e.inflight = &flight{}
				} else {
					e.inflight = nil
				}
				e.mu.Unlock()
			case 6: // a late publish into an evicted entry
				if len(evicted) > 0 {
					c.index(evicted[rng.Intn(len(evicted))], randLinks())
				}
			}
			checkLinkIndex(t, c, model)
			if t.Failed() {
				t.Fatalf("seed %d step %d (op %d)", seed, step, op)
			}
		}
	}
}

// TestCacheClockConcurrentChurnKeepsIndexConsistent: concurrent misses
// and hits on a tiny cache, with links failing and healing underneath,
// leave no evicted entry in the link index and every back-pointer
// intact.
func TestCacheClockConcurrentChurnKeepsIndexConsistent(t *testing.T) {
	s, g := newTestService(t, 4, Options{Shards: 1, CacheCap: 4})
	hosts := g.Hosts()
	var links []topology.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if id := topology.LinkID(i); topology.SwitchLinks(g, g.Link(id)) {
			links = append(links, id)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				perm := rng.Perm(len(hosts))
				set := []topology.NodeID{hosts[perm[0]], hosts[perm[1]], hosts[perm[2]]}
				if _, err := s.TreeFor(context.Background(), set); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 50; i++ {
			id := links[rng.Intn(len(links))]
			s.FailLink(id)
			s.RestoreLink(id)
		}
	}()
	wg.Wait()
	checkLinkIndex(t, s.cache, nil)
}

// checkLinkIndex verifies the cache's structure: each shard's ring holds
// exactly its map's live entries; every byLink slot points back at itself
// through the entry's pos; no dead entry is indexed; and, when model is
// non-nil, the index holds exactly the model's links per entry.
func checkLinkIndex(t *testing.T, c *treeCache, model map[*entry][]topology.LinkID) {
	t.Helper()
	held := map[*entry]bool{}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		if len(s.ring) != len(s.m) {
			t.Errorf("shard %d: ring %d entries, map %d", i, len(s.ring), len(s.m))
		}
		for _, e := range s.ring {
			if s.m[e.key] != e || e.dead.Load() || e.shard != i {
				t.Errorf("shard %d: ring entry %q not live in its map", i, e.key)
			}
			held[e] = true
		}
		s.mu.RUnlock()
	}
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	got := map[*entry]map[topology.LinkID]int{}
	for id, l := range c.byLink {
		if len(l) == 0 {
			t.Errorf("byLink[%d] kept empty", id)
		}
		for i, r := range l {
			if int(r.k) >= len(r.e.links) || r.e.links[r.k] != id || r.e.pos[r.k] != int32(i) {
				t.Errorf("byLink[%d][%d] = {%q, %d}: back-pointer broken", id, i, r.e.key, r.k)
				continue
			}
			if !held[r.e] {
				t.Errorf("byLink[%d] holds %q, which no shard holds", id, r.e.key)
			}
			if got[r.e] == nil {
				got[r.e] = map[topology.LinkID]int{}
			}
			got[r.e][id]++
		}
	}
	for e := range held {
		if len(e.pos) != len(e.links) {
			t.Errorf("%q: %d links, %d positions", e.key, len(e.links), len(e.pos))
		}
		want := map[topology.LinkID]int{}
		for _, id := range e.links {
			want[id]++
		}
		if !maps.Equal(got[e], want) {
			t.Errorf("%q: index holds %v, entry lists %v", e.key, got[e], e.links)
		}
	}
	if model == nil {
		return
	}
	for e := range held {
		want := map[topology.LinkID]int{}
		for _, id := range model[e] {
			want[id]++
		}
		if !maps.Equal(got[e], want) {
			t.Errorf("%q: index holds %v, model %v", e.key, got[e], model[e])
		}
	}
	for e := range model {
		if !held[e] {
			t.Errorf("model entry %q is not held by its shard", e.key)
		}
	}
}
