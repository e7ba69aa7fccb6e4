package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// PushCause classifies why a tree update was pushed.
type PushCause uint8

const (
	// CauseFailure: a failure transition invalidated the group's tree (or
	// the group had none yet) and the refresher recomputed it.
	CauseFailure PushCause = iota
	// CauseMembership: a join/leave/churn edit changed the membership.
	CauseMembership
	// CauseEpoch: an announced fabric reconfiguration pre-peeled the
	// group's tree ahead of the epoch boundary (service.PlanEpoch).
	CauseEpoch
	// CauseSnapshot: the watcher asked for the current publication
	// (Watch.Snapshot); only that watcher receives it.
	CauseSnapshot
)

func (c PushCause) String() string {
	switch c {
	case CauseFailure:
		return "failure"
	case CauseMembership:
		return "membership"
	case CauseEpoch:
		return "epoch"
	case CauseSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// PushUpdate is one published tree update delivered to watch callbacks.
type PushUpdate struct {
	Group string
	Info  TreeInfo
	Cause PushCause
	// Version is the group's publication version: 1 for its first
	// published tree, bumped exactly when the published tree changes. A
	// (group, version) pair names one tree; Info.Gen is only the topology
	// generation that tree was computed at.
	Version uint64
	// InvalidatedAt is when the triggering failure transition was
	// observed (zero for membership-driven pushes); the wire server's
	// push-latency histogram measures delivery against it.
	InvalidatedAt time.Time
}

// Watch is one registered group watch; Close unregisters it.
type Watch struct {
	s    *Service
	id   string
	fn   func(PushUpdate)
	once sync.Once
}

// Close unregisters the watch. Idempotent; no callback runs after Close
// returns.
func (w *Watch) Close() {
	w.once.Do(func() { w.s.unwatch(w) })
}

// Snapshot delivers the group's current publication to w alone, as a
// CauseSnapshot update under the lock every push is delivered under, so
// it is ordered with the pushes w receives. A group with no publication
// yet takes the served tree as its version 1; no other watcher is sent
// it, since none has been sent anything yet.
func (w *Watch) Snapshot(ctx context.Context) error {
	ti, err := w.s.GetTree(ctx, w.id)
	if err != nil {
		return err
	}
	w.s.publish(w.id, ti, CauseSnapshot, time.Time{}, w)
	return nil
}

// watchSet is the per-group watcher census plus publication state.
type watchSet struct {
	watchers map[*Watch]struct{}
	pub      PushUpdate // the last publication; Version 0 before the first
	retries  int        // consecutive failed refreshes (refresh.go)
}

// Watch registers fn for pushed tree updates on group id. The group must
// exist. fn runs under the service's watch lock, which delivers every
// group's versions in order: it must not block (the wire server's
// callbacks only store into a per-subscription cell) and must not call
// back into the service's watch API. No initial tree is delivered; call
// Snapshot for one that is ordered with the pushes.
func (s *Service) Watch(id string, fn func(PushUpdate)) (*Watch, error) {
	if s.closing.Load() {
		return nil, ErrDraining
	}
	if s.lookupGroup(id) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	w := &Watch{s: s, id: id, fn: fn}
	s.watchMu.Lock()
	if s.watched == nil {
		s.watched = map[string]*watchSet{}
		s.pendingRefresh = map[string]refreshReq{}
		s.refreshKick = make(chan struct{}, 1)
		s.refreshStop = make(chan struct{})
		s.refreshDone = make(chan struct{})
		go s.refreshLoop()
	}
	ws := s.watched[id]
	if ws == nil {
		ws = &watchSet{watchers: map[*Watch]struct{}{}}
		s.watched[id] = ws
	}
	ws.watchers[w] = struct{}{}
	n := len(s.watched)
	s.watchMu.Unlock()
	if h := s.tel(); h != nil {
		h.pushWatched.Set(int64(n))
	}
	return w, nil
}

// unwatch removes w; the last watcher of a group drops its publication
// state, so a later re-watch starts again at version 1.
func (s *Service) unwatch(w *Watch) {
	s.watchMu.Lock()
	if ws := s.watched[w.id]; ws != nil {
		delete(ws.watchers, w)
		if len(ws.watchers) == 0 {
			delete(s.watched, w.id)
			delete(s.pendingRefresh, w.id)
		}
	}
	n := len(s.watched)
	s.watchMu.Unlock()
	if h := s.tel(); h != nil {
		h.pushWatched.Set(int64(n))
	}
}

// NumWatched reports how many groups currently have watchers.
func (s *Service) NumWatched() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watched)
}

// CachedTreeInfo returns the group's current cache value, if any, without
// counting a request or triggering a computation — the benchmark's
// refresh probe reads which trees a failure will touch through it.
func (s *Service) CachedTreeInfo(id string) (TreeInfo, bool) {
	v := s.cachedVal(id)
	if v == nil {
		return TreeInfo{}, false
	}
	return s.treeInfo(v, true), true
}

// cachedVal returns the value group id's current membership resolves to
// in the cache, stale or not; nil when the group or its entry does not
// exist. It takes only the read locks the hit path takes.
func (s *Service) cachedVal(id string) *treeVal {
	grp := s.lookupGroup(id)
	if grp == nil {
		return nil
	}
	if e := s.cache.lookup(grp.m.Load().key); e != nil {
		return e.val.Load()
	}
	return nil
}
