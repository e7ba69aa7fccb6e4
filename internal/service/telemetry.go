package service

import (
	"fmt"

	"peel/internal/telemetry"
)

// telHooks caches the active sink's pre-resolved primitives for the
// request fast paths, following netsim's telHooks pattern — names resolve
// once per sink change, then every update is a lock-free atomic. Unlike
// netsim (single-threaded under the event loop), the service is
// concurrent, so the cache hangs off an atomic pointer; rebuilding it
// twice on a sink swap race is benign because primitives are shared by
// name inside the sink.
type telHooks struct {
	sink *telemetry.Sink

	hits        *telemetry.Counter // served from cache, fresh
	misses      *telemetry.Counter // computed on demand (cold or invalidated)
	coalesced   *telemetry.Counter // waited on another request's compute
	overloaded  *telemetry.Counter // rejected by admission control
	evictions   *telemetry.Counter // cache entries evicted at cap
	invalidated *telemetry.Counter // trees marked stale by link failures
	failures    *telemetry.Counter // failure transitions observed
	heals       *telemetry.Counter // heal transitions observed
	recomputes  *telemetry.Counter // failure-driven recomputes (lazy re-peels)

	repairPatched  *telemetry.Counter // invalidated entries patched incrementally
	repairFallback *telemetry.Counter // patch attempts that fell back to a full peel

	epochs            *telemetry.Counter // epoch switch-overs committed
	epochsPlanned     *telemetry.Counter // epoch announcements processed
	prePeels          *telemetry.Counter // groups eagerly re-peeled at announce
	epochPlannedInval *telemetry.Counter // entries invalidated by announcements
	epochCommitInval  *telemetry.Counter // entries still invalidated at commit

	pushRefreshes *telemetry.Counter // eager recomputes run for watched groups
	pushPublished *telemetry.Counter // tree updates published to watchers
	pushSkipped   *telemetry.Counter // refreshes superseded by a queued one, or serving the held tree
	pushAbandoned *telemetry.Counter // refreshes dropped after the retry budget

	opsGet    *telemetry.Counter
	opsJoin   *telemetry.Counter
	opsLeave  *telemetry.Counter
	opsCreate *telemetry.Counter
	opsDelete *telemetry.Counter

	installPs *telemetry.Histogram // charged controller install latency
	treeCost  *telemetry.Histogram // cost of served trees

	repairPatchPs   *telemetry.Histogram // install latency charged for accepted patches
	repairCostDelta *telemetry.Histogram // patched cost minus the prior tree's cost

	groups      *telemetry.Gauge // live group count
	entries     *telemetry.Gauge // total cache entries
	topoGen     *telemetry.Gauge // service topology generation
	pushWatched *telemetry.Gauge // groups with registered watchers

	shardEntries []*telemetry.Gauge // per-shard entry counts
	shardGens    []*telemetry.Gauge // per-shard invalidation generations
}

// tel returns the hook cache for the active sink, or nil when telemetry
// is disabled — the disabled cost is one atomic load.
func (s *Service) tel() *telHooks {
	ts := telemetry.Active()
	if ts == nil {
		return nil
	}
	h := s.hooks.Load()
	if h == nil || h.sink != ts {
		h = newTelHooks(ts, len(s.cache.shards))
		s.hooks.Store(h)
	}
	return h
}

func newTelHooks(ts *telemetry.Sink, shards int) *telHooks {
	h := &telHooks{
		sink:              ts,
		hits:              ts.Counter("service.cache.hits"),
		misses:            ts.Counter("service.cache.misses"),
		coalesced:         ts.Counter("service.cache.coalesced"),
		overloaded:        ts.Counter("service.overloaded"),
		evictions:         ts.Counter("service.cache.evictions"),
		invalidated:       ts.Counter("service.cache.invalidated"),
		failures:          ts.Counter("service.topo.failures"),
		heals:             ts.Counter("service.topo.heals"),
		recomputes:        ts.Counter("service.recompute.failure_driven"),
		repairPatched:     ts.Counter("service.repair.patched"),
		repairFallback:    ts.Counter("service.repair.full_fallback"),
		epochs:            ts.Counter("fabric.epochs"),
		epochsPlanned:     ts.Counter("fabric.epochs_planned"),
		prePeels:          ts.Counter("fabric.pre_peels"),
		epochPlannedInval: ts.Counter("fabric.planned_invalidated"),
		epochCommitInval:  ts.Counter("fabric.commit_invalidated"),

		pushRefreshes: ts.Counter("service.push.refreshes"),
		pushPublished: ts.Counter("service.push.published"),
		pushSkipped:   ts.Counter("service.push.skipped"),
		pushAbandoned: ts.Counter("service.push.abandoned"),
		opsGet:        ts.Counter("service.ops.get_tree"),
		opsJoin:       ts.Counter("service.ops.join"),
		opsLeave:      ts.Counter("service.ops.leave"),
		opsCreate:     ts.Counter("service.ops.create"),
		opsDelete:     ts.Counter("service.ops.delete"),
		installPs:     ts.Histogram("service.install_ps", telemetry.Log2Layout()),
		treeCost:      ts.Histogram("service.tree_cost", telemetry.Log2Layout()),
		repairPatchPs: ts.Histogram("service.repair.patch_ps", telemetry.Log2Layout()),
		// Cost deltas are small and can be negative (a prune-only patch
		// shrinks the tree): fixed-width buckets centered on zero.
		repairCostDelta: ts.Histogram("service.repair.patch_cost_delta", telemetry.LinearLayout(-32, 4, 32)),
		groups:          ts.Gauge("service.groups"),
		entries:         ts.Gauge("service.cache.entries"),
		topoGen:         ts.Gauge("service.topo.generation"),
		pushWatched:     ts.Gauge("service.push.watched"),
	}
	h.shardEntries = make([]*telemetry.Gauge, shards)
	h.shardGens = make([]*telemetry.Gauge, shards)
	for i := 0; i < shards; i++ {
		h.shardEntries[i] = ts.Gauge(fmt.Sprintf("service.shard%02d.entries", i))
		h.shardGens[i] = ts.Gauge(fmt.Sprintf("service.shard%02d.generation", i))
	}
	return h
}

// noteShard refreshes one shard's gauges after an insert, eviction, or
// invalidation touched it.
func (s *Service) noteShard(h *telHooks, shard int) {
	if h == nil || shard < 0 || shard >= len(h.shardEntries) {
		return
	}
	cs := &s.cache.shards[shard]
	cs.mu.RLock()
	n := len(cs.m)
	cs.mu.RUnlock()
	h.shardEntries[shard].Set(int64(n))
	h.shardGens[shard].Set(int64(cs.gen.Load()))
}
