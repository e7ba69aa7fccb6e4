package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"peel/internal/invariant"
	"peel/internal/topology"
	"peel/internal/topology/fabric"
)

// PlanEpoch announces an epoch: trees crossing a to-be-removed circuit
// are invalidated and eagerly re-peeled onto the post-epoch fabric while
// the old circuits still carry traffic. Until CommitEpoch, every tree
// computation runs on the plan view, so replacements are valid both now
// and after the switch-over, and steady-state traffic never observes a
// stale tree. Returns the number of registered groups whose tree was
// pre-peeled (shared cache entries recompute once; each group still
// counts, and each group's watchers get a CauseEpoch push). Groups that
// fail transiently (admission rejection) are left to commit-time
// invalidation rather than retried.
func (s *Service) PlanEpoch(ctx context.Context, removed []topology.LinkID) (int, error) {
	if err := s.live(ctx); err != nil {
		return 0, err
	}
	h := s.tel()
	s.topoMu.Lock()
	view := s.g.Clone()
	for _, id := range removed {
		if id < 0 || int(id) >= s.g.NumLinks() {
			s.topoMu.Unlock()
			return 0, fmt.Errorf("service: plan epoch: unknown link %d", id)
		}
		view.FailLink(id)
	}
	s.plan = view
	s.topoMu.Unlock()

	invalidated := 0
	for _, id := range removed {
		invalidated += s.cache.invalidateLink(id)
	}
	if h != nil {
		h.epochsPlanned.Inc()
		h.epochPlannedInval.Add(int64(invalidated))
	}

	prePeeled := 0
	for _, gid := range s.groupIDs() {
		// Only trees crossing a doomed circuit went stale; a group never
		// computed (or deleted since the snapshot) has nothing to pre-peel.
		if v := s.cachedVal(gid); v == nil || !v.stale.Load() {
			continue
		}
		if err := s.refresh(ctx, gid, CauseEpoch, time.Time{}); err != nil {
			if errors.Is(err, ErrDraining) || ctx.Err() != nil {
				return prePeeled, err
			}
			continue
		}
		prePeeled++
	}
	s.prePeels.Add(int64(prePeeled))
	if h != nil {
		h.prePeels.Add(int64(prePeeled))
	}
	return prePeeled, nil
}

// CommitEpoch executes the announced switch-over: the plan view is
// dropped, removed circuits fail for real, and added circuits heal, all
// through the ordinary serialized mutate path (heals never invalidate,
// so installed circuits are free). Returns how many fresh cache entries
// the commit itself invalidated — entries the pre-peel did not cover;
// an announced epoch with full pre-peel coverage returns 0. With an
// invariant suite armed, the fabric.epoch-consistent walk re-checks
// every servable tree against the removed set. CommitEpoch also serves
// the unannounced A/B arm: calling it without a prior PlanEpoch is
// exactly failure-driven invalidation.
func (s *Service) CommitEpoch(removed, added []topology.LinkID) int64 {
	before := s.invalidatedTotal.Load()
	s.topoMu.Lock()
	s.plan = nil
	for _, id := range removed {
		s.g.FailLink(id)
	}
	for _, id := range added {
		s.g.RestoreLink(id)
	}
	s.topoMu.Unlock()
	s.epochsCommitted.Add(1)
	late := s.invalidatedTotal.Load() - before
	if h := s.tel(); h != nil {
		h.epochs.Inc()
		h.epochCommitInval.Add(late)
	}
	if iv := invariant.Active(); iv != nil {
		fabric.CheckEpochConsistent(iv, removed, s.WalkTreeLinks)
	}
	return late
}

// PlanActive reports whether an announced epoch is awaiting its commit.
func (s *Service) PlanActive() bool {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.plan != nil
}

// EpochCounts reports the reconfiguration totals: epochs committed and
// groups pre-peeled by announcements.
func (s *Service) EpochCounts() (committed, prePeeled int64) {
	return s.epochsCommitted.Load(), s.prePeels.Load()
}

// WalkTreeLinks visits every servable cache entry (published and not
// stale) with its cache key and the link set its tree occupies — the
// walk fabric.CheckEpochConsistent runs after a switch-over.
func (s *Service) WalkTreeLinks(visit func(key string, links []topology.LinkID)) {
	s.cache.walk(visit)
}

// groupIDs snapshots the registered group IDs in sorted order, so
// pre-peel processing (and its telemetry) is deterministic.
func (s *Service) groupIDs() []string {
	s.groupsMu.RLock()
	ids := make([]string, 0, len(s.groups))
	for id := range s.groups {
		ids = append(ids, id)
	}
	s.groupsMu.RUnlock()
	sort.Strings(ids)
	return ids
}
