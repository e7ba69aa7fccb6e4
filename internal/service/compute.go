package service

import (
	"context"
	"fmt"

	"peel/internal/core"
	"peel/internal/invariant"
	"peel/internal/steiner"
)

// maxRepairChain caps consecutive patches on one cache entry. Each patch
// stays inside the fresh-peel cost envelope, but long graft chains drift
// from what a fresh peel would build; a periodic full rebuild re-converges.
const maxRepairChain = 8

// serve is the one serve path behind GetTree, TreeFor and
// TreeForCanonical (and so behind every refresh): it counts the request
// and answers it from the cache or a computation.
func (s *Service) serve(ctx context.Context, m *membership) (TreeInfo, error) {
	h := s.tel()
	if h != nil {
		h.opsGet.Inc()
	}
	e := s.cache.lookup(m.key)
	if v := e.fresh(); v != nil && s.checkServe(v, m) {
		return s.hit(e, v, h), nil
	}
	return s.computeTree(ctx, m, h)
}

// fresh returns e's published value when it is servable (not stale), or
// nil; a nil entry has none.
func (e *entry) fresh() *treeVal {
	if e == nil {
		return nil
	}
	if v := e.val.Load(); v != nil && !v.stale.Load() {
		return v
	}
	return nil
}

// hit answers a request from a fresh value.
func (s *Service) hit(e *entry, v *treeVal, h *telHooks) TreeInfo {
	s.cache.touch(e)
	if h != nil {
		h.hits.Inc()
		h.treeCost.Observe(int64(v.cost))
	}
	return s.treeInfo(v, true)
}

// checkServe re-validates a hit against the current graph when an
// invariant suite is armed. Under the topology read-lock the stale flag
// is settled with respect to every completed failure transition, so a
// false return (the value went stale while we raced a failure) routes the
// request to the recompute path instead of tripping the checker.
func (s *Service) checkServe(v *treeVal, m *membership) bool {
	iv := invariant.Active()
	if iv == nil {
		return true
	}
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if v.stale.Load() {
		return false
	}
	err := v.tree.Validate(s.g, m.recv())
	iv.Checkf(ServedTreeFresh, err == nil,
		"cached tree for key %q invalid on current graph: %v", m.key, err)
	return true
}

// treeInfo assembles a response from a published value.
func (s *Service) treeInfo(v *treeVal, cached bool) TreeInfo {
	return TreeInfo{
		Tree:       v.tree,
		Source:     v.tree.Source,
		Cost:       v.cost,
		Gen:        v.gen,
		CurrentGen: s.gen.Load(),
		InstallPs:  v.installPs,
		Cached:     cached,
		Patched:    v.patched,
		RepairGen:  v.repairGen,
	}
}

// computeTree is the miss path: singleflight-coalesce onto an in-flight
// computation, or run one under admission control. The computation itself
// is not interruptible (it is CPU-bound and its result is published for
// coalesced waiters), but an abandoned caller gets ctx.Err() back as soon
// as the compute finishes — after its admission token is returned, so a
// hung client can never leak capacity.
func (s *Service) computeTree(ctx context.Context, m *membership, h *telHooks) (TreeInfo, error) {
	e, evicted := s.cache.ensure(m.key)
	if h != nil {
		if evicted {
			h.evictions.Inc()
		}
		s.noteShard(h, e.shard)
	}
	e.mu.Lock()
	// Re-check under the entry lock: another request may have published a
	// fresh value between our lookup and here.
	if v := e.fresh(); v != nil {
		e.mu.Unlock()
		return s.hit(e, v, h), nil
	}
	if f := e.inflight; f != nil {
		e.mu.Unlock()
		if h != nil {
			h.coalesced.Inc()
		}
		// A coalesced waiter honors its own deadline: abandoning the wait
		// leaves the flight (and its token accounting) untouched.
		select {
		case <-f.done:
		case <-ctx.Done():
			return TreeInfo{}, ctx.Err()
		}
		if f.err != nil {
			return TreeInfo{}, f.err
		}
		return s.treeInfo(f.val, true), nil
	}
	f := &flight{done: make(chan struct{})}
	e.inflight = f
	e.mu.Unlock()

	finish := func(v *treeVal, err error) {
		e.mu.Lock()
		e.inflight = nil
		e.mu.Unlock()
		f.val, f.err = v, err
		close(f.done)
	}

	// Admission control: fail fast when the computation budget is spent.
	// Coalesced waiters of this flight share the rejection — backpressure
	// applies to the computation, not to each caller individually.
	select {
	case s.inflight <- struct{}{}:
	default:
		if h != nil {
			h.overloaded.Inc()
		}
		finish(nil, ErrOverloaded)
		return TreeInfo{}, ErrOverloaded
	}
	s.computes.Add(1)
	v, err := s.runCompute(e, m, h)
	s.computes.Done()
	<-s.inflight
	finish(v, err)
	if err != nil {
		return TreeInfo{}, err
	}
	if h != nil {
		h.misses.Inc()
		h.treeCost.Observe(int64(v.cost))
	}
	s.cache.touch(e)
	// The tree is published and the token released; an abandoned request
	// still reports its own failure so the daemon can answer 504.
	if cerr := ctx.Err(); cerr != nil {
		return TreeInfo{}, cerr
	}
	return s.treeInfo(v, false), nil
}

// runCompute builds and publishes one tree under the topology read-lock,
// so no failure transition interleaves between construction, link
// indexing, and publication.
func (s *Service) runCompute(e *entry, m *membership, h *telHooks) (*treeVal, error) {
	if s.opts.ComputeHook != nil {
		// Test seam, deliberately outside the topology lock so a gated
		// compute cannot deadlock failure injection.
		s.opts.ComputeHook()
	}
	receivers := m.recv()
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	// During an announced epoch, computes run on the plan view — the
	// current graph plus the to-be-removed circuits failed — so every
	// tree built in the window is valid both now and after the
	// switch-over (the view is strictly more degraded than the graph).
	g := s.g
	if s.plan != nil {
		g = s.plan
	}
	gen := s.gen.Load()
	prior := e.val.Load()
	failureDriven := prior != nil && prior.stale.Load()

	// Patch-first: an invalidated entry keeps its old tree around, so graft
	// the orphaned receivers back in instead of re-peeling from scratch.
	// Chains of patches are capped — after maxRepairChain consecutive
	// grafts the entry re-peels fully to re-converge on peel quality.
	var (
		tree      *steiner.Tree
		err       error
		stats     steiner.RepairStats
		patched   bool
		repairGen uint64
	)
	attempted := failureDriven && prior.repairGen < maxRepairChain
	if attempted {
		tree, stats, err = core.RepairTree(g, prior.tree, -1, receivers, steiner.DefaultRepairPolicy())
		patched = err == nil && !stats.FellBack
	} else {
		tree, err = core.BuildTree(g, m.source, receivers)
	}
	if err != nil {
		return nil, fmt.Errorf("service: tree for %q: %w", m.key, err)
	}
	if patched {
		repairGen = prior.repairGen + 1
		s.repairsPatched.Add(1)
	} else if attempted {
		s.repairsFallback.Add(1)
	}
	if iv := invariant.Active(); iv != nil && !patched {
		// A lazily re-peeled tree must satisfy the same validity and
		// Theorem 2.5 budget checks as the collective repair path's.
		// (Accepted patches were already checked by core.RepairTree under
		// the steiner.repaired-tree-valid invariant.)
		steiner.ReportTreeChecks(iv, g, tree, receivers)
	}
	var installPs int64
	if !patched || stats.GraftEdges > 0 {
		// Charge the §3.1 controller round trip for pushing this tree's
		// rules. The model's RNG is shared across computations; serialize
		// draws. A patch that installed no new forwarding rules (pure prune
		// or no-op) charges nothing — there is nothing to push.
		s.ctrlMu.Lock()
		installPs = int64(s.ctrl.SetupDelay())
		s.ctrlMu.Unlock()
		if h != nil {
			h.installPs.Observe(installPs)
		}
	}
	if h != nil {
		if failureDriven {
			h.recomputes.Inc()
		}
		if patched {
			h.repairPatched.Inc()
			h.repairPatchPs.Observe(installPs)
			h.repairCostDelta.Observe(int64(tree.Cost() - prior.cost))
		} else if attempted {
			h.repairFallback.Inc()
		}
	}
	v := &treeVal{
		tree: tree, cost: tree.Cost(), gen: gen, installPs: installPs,
		patched: patched, repairGen: repairGen,
	}
	s.cache.index(e, tree.Links(g))
	e.val.Store(v)
	return v, nil
}
