package service

import (
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
)

func (c PushCause) String() string {
	switch c {
	case CauseFailure:
		return "failure"
	case CauseMembership:
		return "membership"
	case CauseEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// PushUpdate is one published tree update delivered to watch callbacks.
type PushUpdate struct {
	Group string
	Info  TreeInfo
	Cause PushCause
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

// Close unregisters the watch. Idempotent; no callbacks run after Close
// returns unless one was already in flight.
func (w *Watch) Close() {
	w.once.Do(func() { w.s.unwatch(w) })
}

// watchSet is the per-group watcher census plus publication state.
type watchSet struct {
	watchers map[*Watch]struct{}
	lastPub  uint64 // generation of the last published update
	retries  int    // consecutive failed refreshes (refresh.go)
}

// Watch registers fn for pushed tree updates on group id. The group must
// exist; fn must not block (the wire server's callbacks enqueue onto
// bounded per-connection queues and shed). No initial snapshot is
// delivered — subscribers fetch their own (GetTree) so the snapshot is
// sequenced by the caller's protocol, not raced through the refresher.
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
// state so a later re-watch starts clean.
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

// CachedTreeInfo returns the group's currently published cache value, if
// any, without counting a request or triggering a computation — the wire
// layer's pushed-tree-matches-cache invariant reads the cache through it.
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
