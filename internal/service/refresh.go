package service

import (
	"context"
	"errors"
	"time"
)

// refreshReq is one group's pending refresh: the cause to push it with
// and, for a failure, when the first triggering transition was observed.
type refreshReq struct {
	cause   PushCause
	invalAt time.Time
}

const (
	// refreshTimeout bounds one eager recompute; a stuck compute must not
	// wedge the refresher for every other watched group.
	refreshTimeout = 10 * time.Second
	// maxRefreshRetries bounds requeues of a refresh that keeps failing
	// transiently (admission rejection under overload).
	maxRefreshRetries = 8
)

// refresh is the one recompute-and-publish path. Three triggers feed it:
//
//   - failure: the failure observer queues every watched group whose tree
//     the transition invalidated (enqueueInvalidated);
//   - membership: CreateGroup, Join and Leave queue the edited group;
//   - epoch: PlanEpoch calls it directly for every registered group whose
//     tree crosses a to-be-removed circuit.
//
// It serves the group's tree through the one serve path — patch-first
// when the entry is stale, a hit when another request already recomputed
// it — and publishes the result to the group's watchers, if it has any.
func (s *Service) refresh(ctx context.Context, id string, cause PushCause, invalAt time.Time) error {
	ti, err := s.GetTree(ctx, id)
	if err != nil {
		return err
	}
	s.publish(id, ti, cause, invalAt)
	return nil
}

// publish fans a refreshed tree out to the group's watchers. It drops only
// a generation regression: a refresh that lost a race with a newer
// transition, whose own refresh is then already queued.
func (s *Service) publish(id string, ti TreeInfo, cause PushCause, invalAt time.Time) {
	s.watchMu.Lock()
	ws := s.watched[id]
	if ws == nil {
		s.watchMu.Unlock()
		return
	}
	ws.retries = 0
	if ti.Gen < ws.lastPub {
		s.watchMu.Unlock()
		if h := s.tel(); h != nil {
			h.pushSkipped.Inc()
		}
		return
	}
	ws.lastPub = ti.Gen
	targets := make([]*Watch, 0, len(ws.watchers))
	for w := range ws.watchers {
		targets = append(targets, w)
	}
	s.watchMu.Unlock()
	if h := s.tel(); h != nil {
		h.pushPublished.Inc()
	}
	pu := PushUpdate{Group: id, Info: ti, Cause: cause, InvalidatedAt: invalAt}
	for _, w := range targets {
		w.fn(pu)
	}
}

// enqueue queues a watched group for the refresher; a no-op for unwatched
// groups, so the lifecycle fast paths pay one mutex and a map probe.
func (s *Service) enqueue(id string, cause PushCause, at time.Time) {
	s.watchMu.Lock()
	s.enqueueLocked(id, cause, at)
	s.watchMu.Unlock()
}

// enqueueLocked is enqueue with watchMu held. A pending failure outranks a
// membership edit, and the first failure's timestamp is kept: it anchors
// the propagation-latency measurement (invalidation → subscriber receipt).
func (s *Service) enqueueLocked(id string, cause PushCause, at time.Time) {
	if s.watched[id] == nil {
		return
	}
	req, pending := s.pendingRefresh[id]
	if !pending || cause == CauseFailure {
		req.cause = cause
	}
	if req.invalAt.IsZero() {
		req.invalAt = at
	}
	s.pendingRefresh[id] = req
	select {
	case s.refreshKick <- struct{}{}:
	default:
	}
}

// enqueueInvalidated is the failure trigger, run by the failure observer
// after invalidateLink, typically under topoMu: it must neither block nor
// compute, so it takes only the read locks the hit path takes. A watched
// group is queued when its tree went stale or it has none yet; a group
// the failure did not touch keeps the tree its watchers already hold.
func (s *Service) enqueueInvalidated(at time.Time) {
	s.watchMu.Lock()
	for id := range s.watched {
		if v := s.cachedVal(id); v == nil || v.stale.Load() {
			s.enqueueLocked(id, CauseFailure, at)
		}
	}
	s.watchMu.Unlock()
}

// refreshLoop drains the pending set, one refresh per queued group, so a
// burst of triggers coalesces. It never runs under topoMu, so eager
// refreshes cannot deadlock failure injection. Started lazily by the
// first Watch; stopped by Close.
func (s *Service) refreshLoop() {
	defer close(s.refreshDone)
	for {
		select {
		case <-s.refreshStop:
			return
		case <-s.refreshKick:
		}
		for {
			s.watchMu.Lock()
			if len(s.pendingRefresh) == 0 {
				s.watchMu.Unlock()
				break
			}
			batch := s.pendingRefresh
			s.pendingRefresh = map[string]refreshReq{}
			s.watchMu.Unlock()
			for id, req := range batch {
				s.refreshQueued(id, req)
			}
		}
	}
}

// refreshQueued runs one queued refresh. A deleted group is dropped
// (re-creating it queues it again). Any other failure — admission
// rejection, deadline, a receiver unreachable during a flap window — is
// transient and requeued under a retry budget, so a persistent one cannot
// spin the loop.
func (s *Service) refreshQueued(id string, req refreshReq) {
	h := s.tel()
	if h != nil {
		h.pushRefreshes.Inc()
	}
	ctx, cancel := context.WithTimeout(context.Background(), refreshTimeout)
	err := s.refresh(ctx, id, req.cause, req.invalAt)
	cancel()
	if err == nil || errors.Is(err, ErrNoSuchGroup) || errors.Is(err, ErrDraining) {
		return
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	ws := s.watched[id]
	switch {
	case ws == nil:
		// Unwatched meanwhile: nobody is waiting for the tree.
	case ws.retries < maxRefreshRetries:
		ws.retries++
		s.enqueueLocked(id, req.cause, req.invalAt)
	default:
		ws.retries = 0
		if h != nil {
			h.pushAbandoned.Inc()
		}
	}
}

// stopRefresher shuts the refresh loop down (Close path). Safe when the
// loop never started.
func (s *Service) stopRefresher() {
	s.watchMu.Lock()
	stop, done := s.refreshStop, s.refreshDone
	s.watchMu.Unlock()
	if stop == nil {
		return
	}
	select {
	case <-stop:
	default:
		close(stop)
	}
	<-done
}
