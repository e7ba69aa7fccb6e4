package service

import (
	"sync"
	"sync/atomic"

	"peel/internal/steiner"
	"peel/internal/topology"
)

// The sharded tree cache.
//
// Entries are keyed by the canonical (source, member-set) key and spread
// over power-of-two shards by FNV-1a hash; each shard is an RWMutex-guarded
// map, so a cache hit costs one read-locked map lookup plus atomic loads —
// the hit path is benchmarked at 0 allocs/op. Entry values are immutable
// treeVal snapshots swapped in atomically; invalidation never blocks
// readers, it marks the published snapshot stale and the next access
// recomputes (lazy re-peel).
//
// A shard at its cap evicts by CLOCK (second chance): its entries sit in
// a ring, a hit sets the entry's reference bit, and the shard's hand
// clears set bits and takes the first idle entry whose bit was already
// clear, so an insert at cap costs O(1) amortised instead of a scan.
//
// A link index (link ID → entries whose tree crosses it) drives
// failure-driven invalidation: the service's topology failure observer
// looks up the failed link and marks exactly the affected entries stale,
// bumping their shards' generation counters. Each link's entries are a
// slice, and every entry remembers its position in each of its links'
// slices, so indexing and unindexing an entry cost O(its links).
// Publication happens under the service's topology read-lock, so an entry
// is always indexed before a concurrent failure could need to invalidate
// it.

// treeVal is one immutable published tree computation. The stale flag is
// its only mutable field: set once by the invalidator, read lock-free by
// the hit path.
type treeVal struct {
	tree      *steiner.Tree
	cost      int
	gen       uint64 // service topology generation at compute time
	installPs int64  // controller install latency charged for this compute
	patched   bool   // produced by incremental repair, not a full peel
	repairGen uint64 // consecutive patches since the last full peel
	stale     atomic.Bool
}

// flight is one in-progress tree computation; concurrent requests for the
// same key coalesce onto it (singleflight) and read val/err after done
// closes.
type flight struct {
	done chan struct{}
	val  *treeVal
	err  error
}

// entry is one cache slot. val holds the latest published computation
// (nil until the first completes); inflight, guarded by mu, coalesces
// concurrent computes; links and pos, guarded by the cache's idxMu, list
// the tree links indexed for invalidation and e's position in each
// link's slice of the index.
type entry struct {
	key   string
	shard int
	val   atomic.Pointer[treeVal]
	ref   atomic.Bool // CLOCK reference bit: set on use, cleared by the hand
	// dead is set by eviction, in the same mu section that finds no
	// compute in flight. A dead entry is held by no shard: nothing may
	// claim it for a compute or index it.
	dead atomic.Bool

	mu       sync.Mutex
	inflight *flight

	links []topology.LinkID // guarded by treeCache.idxMu
	pos   []int32           // pos[k]: e's index in byLink[links[k]]; idxMu too
}

// linkRef is one entry in a link's slice of the index: the entry and
// which of its links (e.links[k]) put it there.
type linkRef struct {
	e *entry
	k int32
}

// cacheShard is one partition of the key space. ring holds the same
// entries as m in CLOCK order; hand is the next slot the clock inspects.
type cacheShard struct {
	mu   sync.RWMutex
	m    map[string]*entry
	ring []*entry
	hand int
	idx  int           // this shard's index in treeCache.shards
	gen  atomic.Uint64 // bumped when a failure invalidates an entry here
}

// treeCache is the sharded tree cache plus the link→entry invalidation
// index.
type treeCache struct {
	shards []cacheShard
	mask   uint64
	cap    int // per-shard entry cap; 0 = unbounded

	idxMu  sync.Mutex
	byLink map[topology.LinkID][]linkRef
}

// newTreeCache sizes the cache: shards is rounded up to a power of two.
func newTreeCache(shards, perShardCap int) *treeCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &treeCache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		cap:    perShardCap,
		byLink: map[topology.LinkID][]linkRef{},
	}
	for i := range c.shards {
		c.shards[i].m = map[string]*entry{}
		c.shards[i].idx = i
	}
	return c
}

// shardOf hashes a key to its shard (FNV-1a, inlined to keep the hit path
// allocation-free).
func (c *treeCache) shardOf(key string) *cacheShard {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return &c.shards[h&c.mask]
}

// lookup returns the entry for key, or nil. Read-locked: the hit path.
func (c *treeCache) lookup(key string) *entry {
	s := c.shardOf(key)
	s.mu.RLock()
	e := s.m[key]
	s.mu.RUnlock()
	return e
}

// touch sets e's reference bit. It stores only when the bit is clear, so
// repeated hits on a hot entry read a shared cache line and never write
// it.
func (e *entry) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// ensure returns the entry for key, creating it (and evicting an idle
// entry by CLOCK when the shard is at cap) on first use. The returned
// bool reports whether an eviction happened.
func (c *treeCache) ensure(key string) (*entry, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		return e, false
	}
	e := &entry{key: key, shard: s.idx}
	e.ref.Store(true)
	s.m[key] = e
	if c.cap > 0 && len(s.ring) >= c.cap {
		if slot := c.evictLocked(s); slot >= 0 {
			s.ring[slot] = e
			return e, true
		}
	}
	s.ring = append(s.ring, e)
	return e, false
}

// evictLocked runs s's clock (s.mu held): the hand clears set reference
// bits, skips entries with a compute in flight, and evicts the first idle
// entry whose bit was clear. It returns the victim's ring slot for the
// caller to refill, or -1 when two full turns found every entry busy —
// the shard then grows past cap rather than stalling admission.
func (c *treeCache) evictLocked(s *cacheShard) int {
	n := len(s.ring)
	for i := 0; i < 2*n; i++ {
		slot := s.hand
		if s.hand++; s.hand == n {
			s.hand = 0
		}
		e := s.ring[slot]
		if e.ref.Load() {
			e.ref.Store(false) // second chance
			continue
		}
		e.mu.Lock()
		idle := e.inflight == nil
		if idle {
			e.dead.Store(true)
		}
		e.mu.Unlock()
		if idle {
			delete(s.m, e.key)
			c.unindex(e)
			return slot
		}
	}
	return -1
}

// index records the links of e's freshly published tree, replacing any
// previous indexing. Called with the service topology read-lock held, so
// no failure transition can interleave between publication and indexing.
// A dead entry is not indexed: eviction marks it dead before unindexing
// it under idxMu, so it can never be left in the index.
func (c *treeCache) index(e *entry, links []topology.LinkID) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	c.unindexLocked(e)
	if e.dead.Load() {
		return
	}
	e.links = links
	e.pos = make([]int32, len(links))
	for k, id := range links {
		l := c.byLink[id]
		e.pos[k] = int32(len(l))
		c.byLink[id] = append(l, linkRef{e, int32(k)})
	}
}

// unindex drops e from the link index (eviction path). idxMu is taken
// here; callers hold only the shard lock.
func (c *treeCache) unindex(e *entry) {
	c.idxMu.Lock()
	c.unindexLocked(e)
	c.idxMu.Unlock()
}

// unindexLocked swap-removes e from each of its links' slices, fixing the
// back-pointer of the entry moved into its place (idxMu held).
func (c *treeCache) unindexLocked(e *entry) {
	for k, id := range e.links {
		l := c.byLink[id]
		i, last := e.pos[k], len(l)-1
		if moved := l[last]; int(i) != last {
			l[i] = moved
			moved.e.pos[moved.k] = i
		}
		l[last] = linkRef{} // drop the pointer so an evicted entry can be freed
		if last == 0 {
			delete(c.byLink, id)
		} else {
			c.byLink[id] = l[:last]
		}
	}
	e.links, e.pos = nil, nil
}

// invalidateLink marks every entry whose tree crosses the failed link
// stale and bumps the affected shards' generations. Returns how many
// live entries were invalidated. Runs inside the topology failure
// observer, synchronously with the transition.
func (c *treeCache) invalidateLink(id topology.LinkID) int {
	n := 0
	c.idxMu.Lock()
	for _, r := range c.byLink[id] {
		if v := r.e.val.Load(); v != nil && !v.stale.Swap(true) {
			n++
			c.shards[r.e.shard].gen.Add(1)
		}
	}
	c.idxMu.Unlock()
	return n
}

// walk visits every entry holding a servable (published, non-stale)
// value with its key and indexed link set — the epoch-consistency
// re-walk. Link sets are copied under idxMu so the visitor runs
// lock-free; entries going stale mid-walk may still be visited with
// their last indexed links, which is the conservative direction.
func (c *treeCache) walk(visit func(key string, links []topology.LinkID)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		entries := append([]*entry(nil), s.ring...)
		s.mu.RUnlock()
		for _, e := range entries {
			if v := e.val.Load(); v == nil || v.stale.Load() {
				continue
			}
			c.idxMu.Lock()
			links := append([]topology.LinkID(nil), e.links...)
			c.idxMu.Unlock()
			visit(e.key, links)
		}
	}
}

// entryCount returns the total and per-shard entry counts.
func (c *treeCache) entryCount() (total int, perShard []int) {
	perShard = make([]int, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		perShard[i] = len(s.m)
		s.mu.RUnlock()
		total += perShard[i]
	}
	return total, perShard
}
