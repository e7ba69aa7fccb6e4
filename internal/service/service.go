// Package service is peeld: a concurrent, long-running multicast
// control plane over one Clos fabric. Batch experiments build a topology,
// compute trees, run one collective, and exit; a deployment (the paper's
// §3–§4 story, and systems like Elmo) instead fields group lifecycle
// requests from many tenants for days and must keep served trees
// consistent as links fail. The service owns:
//
//   - Group lifecycle: CreateGroup / Join / Leave / GetTree / DeleteGroup,
//     exposed in-process through the Client interface and over HTTP/JSON
//     by cmd/peeld (daemon.go holds the shared wiring).
//   - A sharded tree cache keyed by the canonical (source, member-set)
//     tuple with singleflight coalescing: concurrent identical requests
//     compute one tree, and groups with identical membership share it.
//   - Generation-based invalidation wired to topology's failure-event
//     observers: a link (or switch) failure bumps the topology generation
//     and marks exactly the cached trees crossing the dead link stale;
//     the next access lazily re-peels on the degraded graph — the same
//     recompute path internal/collective uses for mid-flight repair — and
//     charges the §3.1 controller install latency for the new rules.
//   - Admission control: at most MaxInflight tree computations run at
//     once; beyond that, misses fail fast with ErrOverloaded (cache hits
//     always succeed), so overload degrades to stale-tolerant reads
//     instead of collapse.
//
// Correctness is invariant-checked: with a suite armed, every served tree
// is re-validated against the *current* graph under the topology lock
// (the "service.served-tree-fresh" checker), so a chaos run proves no
// request ever observes a tree crossing a failed link.
//
// Concurrency contract: the topology.Graph is not itself thread-safe, so
// all failure-state mutations must go through the service's FailLink /
// RestoreLink wrappers (the HTTP chaos endpoints do), which serialize
// against in-flight tree computations via an RWMutex.
package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peel/internal/controller"
	"peel/internal/invariant"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// Invariant checkers owned by this layer. Registered at init, so any
// suite built after the package is linked (invtest.Main, peelsim -check)
// sees them.
const (
	// ServedTreeFresh: every tree served from the cache validates against
	// the graph's current failure state at serve time.
	ServedTreeFresh = "service.served-tree-fresh"
	// CacheKeyCanonical: permutations and duplications of a member set
	// canonicalize to the same cache key.
	CacheKeyCanonical = "service.cache-key-canonical"
)

func init() {
	invariant.Register(invariant.Checker{
		Name:   ServedTreeFresh,
		Anchor: "§3.1 (control-plane consistency)",
		Desc:   "every tree served by the control plane validates against the current (possibly degraded) graph",
	})
	invariant.Register(invariant.Checker{
		Name:   CacheKeyCanonical,
		Anchor: "cache coherence",
		Desc:   "cache keys are invariant under member-set permutation and duplication",
	})
}

// Typed request errors. The HTTP layer maps them to status codes;
// in-process callers dispatch with errors.Is.
var (
	ErrOverloaded    = errors.New("service: overloaded: tree-computation capacity exhausted")
	ErrNoSuchGroup   = errors.New("service: no such group")
	ErrGroupExists   = errors.New("service: group already exists")
	ErrNotMember     = errors.New("service: host is not a group member")
	ErrBadMember     = errors.New("service: member is not a host of this fabric")
	ErrGroupTooSmall = errors.New("service: group needs at least two distinct member hosts")
	ErrDraining      = errors.New("service: draining")
)

// Options configures a Service.
type Options struct {
	// Shards is the tree-cache shard count, rounded up to a power of two
	// (default 16).
	Shards int
	// MaxInflight bounds concurrent tree computations; further misses
	// return ErrOverloaded (default 2×GOMAXPROCS).
	MaxInflight int
	// CacheCap caps entries per shard, evicting least-recently-used idle
	// entries (default 4096; <0 = unbounded).
	CacheCap int
	// Seed seeds the controller install-latency model (default 1).
	Seed int64
	// ComputeHook, when set, runs at the start of every tree computation
	// (before the topology lock is taken). It is a test seam for slowing
	// or gating computes — admission-token and singleflight tests block in
	// it — and must never be set in production configurations.
	ComputeHook func()
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.CacheCap == 0 {
		o.CacheCap = 4096
	} else if o.CacheCap < 0 {
		o.CacheCap = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// GroupInfo describes one group's current membership.
type GroupInfo struct {
	ID      string
	Source  topology.NodeID
	Members []topology.NodeID // canonical: sorted, deduplicated, includes Source
	Version uint64            // membership version, bumped by Join/Leave
}

// TreeInfo is one GetTree response. Tree is shared with the cache and
// must be treated as read-only.
type TreeInfo struct {
	Tree       *steiner.Tree
	Source     topology.NodeID
	Cost       int
	Gen        uint64 // topology generation the tree was computed at
	CurrentGen uint64 // topology generation now
	InstallPs  int64  // controller install latency charged for this tree's rules
	Cached     bool   // true when served without a fresh computation
	Patched    bool   // tree came from an incremental repair, not a full peel
	RepairGen  uint64 // consecutive patches since the entry's last full peel
}

// Client is the group-lifecycle API, implemented in-process by *Service
// and by the federation router's failover client; the loadgen drives it,
// and cmd/peeld re-exposes it over HTTP/JSON. Every call takes a context:
// daemon handlers propagate the client's deadline into the service, and
// federated implementations propagate it across replica hops.
type Client interface {
	CreateGroup(ctx context.Context, id string, members []topology.NodeID) (GroupInfo, error)
	Describe(ctx context.Context, id string) (GroupInfo, error)
	Join(ctx context.Context, id string, host topology.NodeID) (GroupInfo, error)
	Leave(ctx context.Context, id string, host topology.NodeID) (GroupInfo, error)
	GetTree(ctx context.Context, id string) (TreeInfo, error)
	DeleteGroup(ctx context.Context, id string) error
}

// FaultInjector is the failure-injection surface: chaos drivers (the
// loadgen's flap schedule, the daemon's chaos endpoints) fail and heal
// links through it so transitions stay serialized with invalidation.
// *Service implements it for one fabric; federation.Federation implements
// it by replicating every transition to all replicas.
type FaultInjector interface {
	FailLink(id topology.LinkID) bool
	RestoreLink(id topology.LinkID) bool
	NumLinks() int
}

// API is the full surface the HTTP daemon serves: group lifecycle, direct
// tree computation, chaos, and operational state. *Service implements it
// for a single node; the federation router's client implements it over a
// replica fleet so cmd/peeld serves both through one handler set.
type API interface {
	Client
	FaultInjector
	// TreeFor computes (or serves from cache) the tree for an explicit
	// membership, members[0] being the source — the group-registry-free
	// path federation routers use to offload computation onto replicas.
	TreeFor(ctx context.Context, members []topology.NodeID) (TreeInfo, error)
	// Ready reports request-serving readiness (the topology observer is
	// subscribed and the instance is not draining).
	Ready() bool
	// StatsJSON returns the instance's stats payload for GET /v1/stats.
	StatsJSON() any
	// RefreshGauges pushes current state into armed telemetry gauges.
	RefreshGauges()
	// Close drains the instance.
	Close()
}

// membership is one immutable membership snapshot; Join/Leave swap in a
// fresh one so GetTree reads it lock-free.
type membership struct {
	key       string
	source    topology.NodeID
	members   []topology.NodeID // canonical
	receivers []topology.NodeID // members minus source; may be nil (see recv)
	version   uint64
}

// recv returns the receiver set, deriving it when the snapshot was built
// without one (TreeForCanonical's trusted path defers the allocation to
// the compute path). No caching: memberships are shared immutable.
func (m *membership) recv() []topology.NodeID {
	if m.receivers != nil {
		return m.receivers
	}
	return receiversOf(m.source, m.members)
}

// group is one registered multicast group.
type group struct {
	id string
	mu sync.Mutex // serializes membership edits
	m  atomic.Pointer[membership]
}

// Service is the control plane. See the package comment for the design.
type Service struct {
	g    *topology.Graph
	opts Options

	// topoMu serializes failure-state mutations (write) against tree
	// computations and armed serve-time validation (read).
	topoMu sync.RWMutex
	gen    atomic.Uint64 // bumped per failure-state transition
	obs    topology.ObserverHandle
	// plan is the active epoch announcement's view (epoch.go): a clone of
	// g with the to-be-removed circuits failed. Guarded by topoMu; while
	// set, tree computations run on it so replacements avoid those
	// circuits. Clones carry no observers, so failing links on it notifies
	// nobody.
	plan *topology.Graph

	cache *treeCache

	groupsMu sync.RWMutex
	groups   map[string]*group

	ctrlMu sync.Mutex
	ctrl   *controller.Model

	inflight chan struct{} // admission tokens for tree computations
	closing  atomic.Bool
	computes sync.WaitGroup

	repairsPatched  atomic.Int64 // invalidated entries served by a graft patch
	repairsFallback atomic.Int64 // patch attempts that degraded to a full peel

	invalidatedTotal atomic.Int64 // fresh entries invalidated by failures, ever
	epochsCommitted  atomic.Int64 // epoch switch-overs executed (epoch.go)
	prePeels         atomic.Int64 // groups eagerly re-peeled by announcements

	// Push layer (subs.go): the group-watch registry and its refresher.
	// All fields are guarded by watchMu; the maps and channels are built
	// lazily by the first Watch.
	watchMu        sync.Mutex
	watched        map[string]*watchSet
	pendingRefresh map[string]refreshReq
	refreshKick    chan struct{}
	refreshStop    chan struct{}
	refreshDone    chan struct{}

	hooks atomic.Pointer[telHooks]
}

var _ API = (*Service)(nil)

// New builds a service owning g. The graph must not be mutated behind the
// service's back once requests are flowing; route failure injection
// through FailLink/RestoreLink (or keep external mutation single-threaded
// with request traffic, as simulator harnesses do).
func New(g *topology.Graph, opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		g:        g,
		opts:     opts,
		cache:    newTreeCache(opts.Shards, opts.CacheCap),
		groups:   map[string]*group{},
		ctrl:     controller.New(rand.New(rand.NewSource(opts.Seed))),
		inflight: make(chan struct{}, opts.MaxInflight),
	}
	s.obs = g.OnFailureChange(s.onFailureChange)
	return s
}

// Close drains the service: new requests fail with ErrDraining, in-flight
// tree computations finish, and the failure observer is unsubscribed so
// the graph does not pin the service (the leak Unsubscribe exists for).
// Close is idempotent.
func (s *Service) Close() {
	if s.closing.Swap(true) {
		return
	}
	// The refresher first: its eager recomputes fail fast with ErrDraining
	// once closing is set, and stopping it before the computes barrier
	// keeps a mid-drain refresh from racing the wait below.
	s.stopRefresher()
	s.computes.Wait()
	s.topoMu.Lock()
	s.g.Unsubscribe(s.obs)
	s.topoMu.Unlock()
}

// live is the prologue of every request that may change or compute
// state: a done ctx or a draining service refuses it before any work.
func (s *Service) live(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closing.Load() {
		return ErrDraining
	}
	return nil
}

// Gen returns the current topology generation: the count of failure-state
// transitions observed since construction.
func (s *Service) Gen() uint64 { return s.gen.Load() }

// Ready reports whether the service can serve requests: its topology
// observer is subscribed (true from construction) and it is not draining.
// The daemon's /readyz endpoint and federation health probes read it.
func (s *Service) Ready() bool { return !s.closing.Load() }

// StatsJSON implements API for the daemon's stats endpoint.
func (s *Service) StatsJSON() any { return s.Stats() }

// onFailureChange is the generation-based invalidator, registered with
// the graph at construction. It runs synchronously inside the transition
// (under topoMu when the mutation came through the service wrappers), so
// once FailLink returns, no later GetTree can serve a tree crossing the
// dead link without recomputing.
func (s *Service) onFailureChange(id topology.LinkID, failed bool) {
	s.gen.Add(1)
	h := s.tel()
	if h != nil {
		h.topoGen.Set(int64(s.gen.Load()))
	}
	// Mirror real transitions onto the active plan view (if any), so
	// pre-peels announced before a chaos failure never route onto the
	// freshly dead link. The observer runs under topoMu for mutations
	// routed through the service wrappers, which is the concurrency
	// contract for epochs too.
	if p := s.plan; p != nil {
		if failed {
			p.FailLink(id)
		} else {
			p.RestoreLink(id)
		}
	}
	if !failed {
		// Heals never invalidate: a cached tree stays valid when a link it
		// does not use returns, and one it does use coming back cannot
		// un-fail a tree that was already marked stale. Entries recompute
		// lazily and re-converge onto better trees on their next miss.
		if h != nil {
			h.heals.Inc()
		}
		return
	}
	n := s.cache.invalidateLink(id)
	s.invalidatedTotal.Add(int64(n))
	if h != nil {
		h.failures.Inc()
		h.invalidated.Add(int64(n))
		for i := range s.cache.shards {
			h.shardGens[i].Set(int64(s.cache.shards[i].gen.Load()))
		}
	}
	s.enqueueInvalidated(time.Now())
}

// FailLink fails a link through the service, serialized against tree
// computations; reports whether the link state actually transitioned.
func (s *Service) FailLink(id topology.LinkID) bool {
	return s.mutate(func() bool {
		before := s.g.NumFailedLinks()
		s.g.FailLink(id)
		return s.g.NumFailedLinks() != before
	})
}

// RestoreLink heals a link through the service.
func (s *Service) RestoreLink(id topology.LinkID) bool {
	return s.mutate(func() bool {
		before := s.g.NumFailedLinks()
		s.g.RestoreLink(id)
		return s.g.NumFailedLinks() != before
	})
}

func (s *Service) mutate(fn func() bool) bool {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	return fn()
}

// NumLinks exposes the fabric's link count (chaos drivers pick targets
// from it without touching the graph).
func (s *Service) NumLinks() int { return s.g.NumLinks() }

// Graph returns the owned graph for read-only inspection; see the
// concurrency contract in the package comment before mutating it.
func (s *Service) Graph() *topology.Graph { return s.g }

// lookupGroup resolves a group by ID.
func (s *Service) lookupGroup(id string) *group {
	s.groupsMu.RLock()
	grp := s.groups[id]
	s.groupsMu.RUnlock()
	return grp
}

// canonicalize validates and canonicalizes a membership: source is
// members[0] (the workload convention), members are host nodes, the
// distinct set has at least two hosts.
func (s *Service) canonicalize(members []topology.NodeID) (*membership, error) {
	if len(members) == 0 {
		return nil, ErrGroupTooSmall
	}
	for _, m := range members {
		if m < 0 || int(m) >= s.g.NumNodes() || s.g.Node(m).Kind != topology.Host {
			return nil, fmt.Errorf("%w: node %d", ErrBadMember, m)
		}
	}
	source := members[0]
	canon := canonicalMembers(source, members[1:])
	if len(canon) < 2 {
		return nil, ErrGroupTooSmall
	}
	m := &membership{
		key:       treeKey(source, canon),
		source:    source,
		members:   canon,
		receivers: receiversOf(source, canon),
	}
	if iv := invariant.Active(); iv != nil {
		reportCanonicalKey(iv, m, members)
	}
	return m, nil
}

// reportCanonicalKey spot-checks key canonicalization on live traffic: a
// reversed, duplicated rendering of the same request must produce the
// same key.
func reportCanonicalKey(iv *invariant.Suite, m *membership, raw []topology.NodeID) {
	shuffled := make([]topology.NodeID, 0, 2*len(raw))
	for i := len(raw) - 1; i >= 0; i-- {
		shuffled = append(shuffled, raw[i], raw[i])
	}
	again := treeKey(m.source, canonicalMembers(m.source, shuffled))
	iv.Checkf(CacheKeyCanonical, again == m.key,
		"key %q != %q for permuted+duplicated member set", again, m.key)
}

func (g *group) info() GroupInfo {
	m := g.m.Load()
	return GroupInfo{
		ID:      g.id,
		Source:  m.source,
		Members: append([]topology.NodeID(nil), m.members...),
		Version: m.version,
	}
}

// CreateGroup registers a group. members[0] is the source; the member set
// is canonicalized (sorted, deduplicated). Fails with ErrGroupExists if
// the ID is taken.
func (s *Service) CreateGroup(ctx context.Context, id string, members []topology.NodeID) (GroupInfo, error) {
	if err := s.live(ctx); err != nil {
		return GroupInfo{}, err
	}
	if id == "" {
		return GroupInfo{}, fmt.Errorf("service: empty group ID")
	}
	m, err := s.canonicalize(members)
	if err != nil {
		return GroupInfo{}, err
	}
	grp := &group{id: id}
	grp.m.Store(m)
	s.groupsMu.Lock()
	if _, dup := s.groups[id]; dup {
		s.groupsMu.Unlock()
		return GroupInfo{}, fmt.Errorf("%w: %s", ErrGroupExists, id)
	}
	s.groups[id] = grp
	n := len(s.groups)
	s.groupsMu.Unlock()
	if h := s.tel(); h != nil {
		h.opsCreate.Inc()
		h.groups.Set(int64(n))
	}
	// A churned group (delete + re-create under the same ID) may still be
	// watched; its subscribers get the fresh placement's tree pushed.
	s.enqueue(id, CauseMembership, time.Time{})
	return grp.info(), nil
}

// Describe returns a group's current membership.
func (s *Service) Describe(ctx context.Context, id string) (GroupInfo, error) {
	if err := ctx.Err(); err != nil {
		return GroupInfo{}, err
	}
	grp := s.lookupGroup(id)
	if grp == nil {
		return GroupInfo{}, fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	return grp.info(), nil
}

// Canonicalize validates an explicit membership (members[0] is the
// source) and returns its canonical routing tuple: the tree-cache key,
// the source, and the canonical member set. The federation router uses
// it to route TreeFor requests the same way GetTree routes registered
// groups.
func (s *Service) Canonicalize(members []topology.NodeID) (key string, source topology.NodeID, canonical []topology.NodeID, err error) {
	m, err := s.canonicalize(members)
	if err != nil {
		return "", 0, nil, err
	}
	return m.key, m.source, m.members, nil
}

// GroupSnapshot returns a group's current membership without copying:
// the source, the canonical member set (READ-ONLY — it is the live
// snapshot shared with concurrent readers), and the tree-cache key. The
// federation router uses it to route GetTree by key with zero per-op
// allocation.
func (s *Service) GroupSnapshot(id string) (source topology.NodeID, members []topology.NodeID, key string, err error) {
	grp := s.lookupGroup(id)
	if grp == nil {
		return 0, nil, "", fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	m := grp.m.Load()
	return m.source, m.members, m.key, nil
}

// Join adds a host to a group. Joining a current member is a no-op
// returning the unchanged membership.
func (s *Service) Join(ctx context.Context, id string, host topology.NodeID) (GroupInfo, error) {
	if err := s.live(ctx); err != nil {
		return GroupInfo{}, err
	}
	grp := s.lookupGroup(id)
	if grp == nil {
		return GroupInfo{}, fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	if host < 0 || int(host) >= s.g.NumNodes() || s.g.Node(host).Kind != topology.Host {
		return GroupInfo{}, fmt.Errorf("%w: node %d", ErrBadMember, host)
	}
	grp.mu.Lock()
	defer grp.mu.Unlock()
	cur := grp.m.Load()
	i := sort.Search(len(cur.members), func(i int) bool { return cur.members[i] >= host })
	if i < len(cur.members) && cur.members[i] == host {
		return grp.info(), nil
	}
	members := make([]topology.NodeID, 0, len(cur.members)+1)
	members = append(members, cur.members[:i]...)
	members = append(members, host)
	members = append(members, cur.members[i:]...)
	next := &membership{
		key:       treeKey(cur.source, members),
		source:    cur.source,
		members:   members,
		receivers: receiversOf(cur.source, members),
		version:   cur.version + 1,
	}
	grp.m.Store(next)
	if h := s.tel(); h != nil {
		h.opsJoin.Inc()
	}
	s.enqueue(id, CauseMembership, time.Time{})
	return grp.info(), nil
}

// Leave removes a host from a group. When the source leaves, the lowest
// remaining member becomes the new source. Shrinking below two members
// fails with ErrGroupTooSmall (delete the group instead).
func (s *Service) Leave(ctx context.Context, id string, host topology.NodeID) (GroupInfo, error) {
	if err := s.live(ctx); err != nil {
		return GroupInfo{}, err
	}
	grp := s.lookupGroup(id)
	if grp == nil {
		return GroupInfo{}, fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	grp.mu.Lock()
	defer grp.mu.Unlock()
	cur := grp.m.Load()
	i := sort.Search(len(cur.members), func(i int) bool { return cur.members[i] >= host })
	if i >= len(cur.members) || cur.members[i] != host {
		return GroupInfo{}, fmt.Errorf("%w: node %d not in %s", ErrNotMember, host, id)
	}
	if len(cur.members) <= 2 {
		return GroupInfo{}, ErrGroupTooSmall
	}
	members := make([]topology.NodeID, 0, len(cur.members)-1)
	members = append(members, cur.members[:i]...)
	members = append(members, cur.members[i+1:]...)
	source := cur.source
	if host == source {
		source = members[0]
	}
	next := &membership{
		key:       treeKey(source, members),
		source:    source,
		members:   members,
		receivers: receiversOf(source, members),
		version:   cur.version + 1,
	}
	grp.m.Store(next)
	if h := s.tel(); h != nil {
		h.opsLeave.Inc()
	}
	s.enqueue(id, CauseMembership, time.Time{})
	return grp.info(), nil
}

// DeleteGroup unregisters a group. Cached trees for its membership stay
// until evicted or invalidated — they may serve other groups with the
// same canonical member set.
func (s *Service) DeleteGroup(ctx context.Context, id string) error {
	if err := s.live(ctx); err != nil {
		return err
	}
	s.groupsMu.Lock()
	_, ok := s.groups[id]
	delete(s.groups, id)
	n := len(s.groups)
	s.groupsMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	if h := s.tel(); h != nil {
		h.opsDelete.Inc()
		h.groups.Set(int64(n))
	}
	return nil
}

// GetTree returns the multicast distribution tree for a group's current
// membership: a cache hit when a fresh tree is published (0 allocs), a
// coalesced wait when another request is already computing it, or a fresh
// computation — which pays admission control and, for failure-driven
// recomputes, the charged controller install latency. An expired or
// cancelled ctx aborts coalesced waits and fails abandoned computations
// with ctx.Err() after their admission token is returned.
func (s *Service) GetTree(ctx context.Context, id string) (TreeInfo, error) {
	if err := s.live(ctx); err != nil {
		return TreeInfo{}, err
	}
	grp := s.lookupGroup(id)
	if grp == nil {
		return TreeInfo{}, fmt.Errorf("%w: %s", ErrNoSuchGroup, id)
	}
	return s.serve(ctx, grp.m.Load())
}

// TreeFor computes (or serves from cache) the tree for an explicit
// membership with members[0] as the source — the group-registry-free
// entry point federated routers call on replicas. It shares the cache,
// singleflight, admission control, and invalidation machinery with
// GetTree: a replica serving TreeFor behaves exactly like the single-node
// GetTree path for an equivalent group.
func (s *Service) TreeFor(ctx context.Context, members []topology.NodeID) (TreeInfo, error) {
	if err := s.live(ctx); err != nil {
		return TreeInfo{}, err
	}
	m, err := s.canonicalize(members)
	if err != nil {
		return TreeInfo{}, err
	}
	return s.serve(ctx, m)
}

// TreeForCanonical is TreeFor for a pre-canonicalized membership: source,
// the canonical member set (sorted, deduplicated, containing source), and
// its tree key, as returned by GroupSnapshot or CanonicalKey. Trusted
// callers only — the in-process federation backend uses it to skip
// re-canonicalization on the per-op path. The members slice is retained
// read-only; receivers are derived lazily on the compute path.
func (s *Service) TreeForCanonical(ctx context.Context, key string, source topology.NodeID, members []topology.NodeID) (TreeInfo, error) {
	if err := s.live(ctx); err != nil {
		return TreeInfo{}, err
	}
	return s.serve(ctx, &membership{key: key, source: source, members: members})
}

// RepairCounts reports how invalidated entries recomputed: patched is the
// count served by an incremental graft, fellBack the count where a patch
// attempt degraded to a full re-peel (policy bounds, cost envelope, or a
// chain-cap rebuild).
func (s *Service) RepairCounts() (patched, fellBack int64) {
	return s.repairsPatched.Load(), s.repairsFallback.Load()
}

// Stats is a point-in-time service census.
type Stats struct {
	Groups              int    `json:"groups"`
	CacheEntries        int    `json:"cache_entries"`
	Shards              int    `json:"shards"`
	Gen                 uint64 `json:"topology_generation"`
	FailedLinks         int    `json:"failed_links"`
	MaxInflight         int    `json:"max_inflight"`
	RepairsPatched      int64  `json:"repairs_patched"`
	RepairsFullFallback int64  `json:"repairs_full_fallback"`
	EpochsCommitted     int64  `json:"epochs_committed"`
	EpochPrePeels       int64  `json:"epoch_pre_peels"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.groupsMu.RLock()
	groups := len(s.groups)
	s.groupsMu.RUnlock()
	total, _ := s.cache.entryCount()
	s.topoMu.RLock()
	failed := s.g.NumFailedLinks()
	s.topoMu.RUnlock()
	return Stats{
		Groups:              groups,
		CacheEntries:        total,
		Shards:              len(s.cache.shards),
		Gen:                 s.gen.Load(),
		FailedLinks:         failed,
		MaxInflight:         s.opts.MaxInflight,
		RepairsPatched:      s.repairsPatched.Load(),
		RepairsFullFallback: s.repairsFallback.Load(),
		EpochsCommitted:     s.epochsCommitted.Load(),
		EpochPrePeels:       s.prePeels.Load(),
	}
}

// RefreshGauges pushes the current entry/generation census into the
// armed telemetry sink's gauges (exporters call it before snapshotting).
func (s *Service) RefreshGauges() {
	h := s.tel()
	if h == nil {
		return
	}
	total, per := s.cache.entryCount()
	h.entries.Set(int64(total))
	h.topoGen.Set(int64(s.gen.Load()))
	for i, n := range per {
		h.shardEntries[i].Set(int64(n))
		h.shardGens[i].Set(int64(s.cache.shards[i].gen.Load()))
	}
	s.groupsMu.RLock()
	h.groups.Set(int64(len(s.groups)))
	s.groupsMu.RUnlock()
}
