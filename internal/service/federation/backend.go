package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"peel/internal/service"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// Backend is what the router needs from one replica. Two implementations
// exist: localBackend wraps an in-process service.Service (tests,
// `peelsim loadgen -replicas`, and the deterministic golden runs),
// httpBackend speaks the peeld HTTP API to a real process (cmd/peeld
// -join).
type Backend interface {
	Name() string
	// TreeFor computes (or serves from the replica's cache) the tree for a
	// pre-canonicalized membership.
	TreeFor(ctx context.Context, key string, source topology.NodeID, members []topology.NodeID) (service.TreeInfo, error)
	// ApplyEvent applies one replicated topology transition. The event
	// must be a real transition on the replica (it is, when events arrive
	// in log order on a replica built from the same pristine fabric); a
	// no-op application means the replica diverged and is an error.
	ApplyEvent(ctx context.Context, ev Event) error
	// Gen probes the replica's topology generation — its generation-vector
	// entry from its own point of view (0 after a fresh restart).
	Gen(ctx context.Context) (uint64, error)
	// Ping is the health probe (readiness, not liveness: a draining
	// replica fails it).
	Ping(ctx context.Context) error
	// Close shuts the backend down gracefully (federation shutdown, not
	// chaos).
	Close()
}

// --- in-process backend ----------------------------------------------

// localBackend hosts a service.Service with kill -9 semantics: Kill
// atomically cuts it off (calls return ErrReplicaDown, in-flight answers
// are discarded), Restart builds a fresh service on a pristine graph at
// generation 0. The abandoned service is not drained — like a killed
// process, its state just disappears (the GC is our kernel).
type localBackend struct {
	name     string
	newGraph func() *topology.Graph
	opts     service.Options
	svc      atomic.Pointer[service.Service]
	alive    atomic.Bool
	// Lifetime repair census of service images retired by Restart, so a
	// kill/restart cycle doesn't erase the replica's contribution to
	// Federation.RepairCounts.
	retiredPatched  atomic.Int64
	retiredFallback atomic.Int64
}

func newLocalBackend(name string, newGraph func() *topology.Graph, opts service.Options) *localBackend {
	b := &localBackend{name: name, newGraph: newGraph, opts: opts}
	b.svc.Store(service.New(newGraph(), opts))
	b.alive.Store(true)
	return b
}

func (b *localBackend) Name() string { return b.name }

func (b *localBackend) TreeFor(ctx context.Context, key string, source topology.NodeID, members []topology.NodeID) (service.TreeInfo, error) {
	if !b.alive.Load() {
		return service.TreeInfo{}, ErrReplicaDown
	}
	ti, err := b.svc.Load().TreeForCanonical(ctx, key, source, members)
	if !b.alive.Load() {
		// Killed mid-call: the process died before the response left it.
		return service.TreeInfo{}, ErrReplicaDown
	}
	return ti, err
}

func (b *localBackend) ApplyEvent(ctx context.Context, ev Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !b.alive.Load() {
		return ErrReplicaDown
	}
	svc := b.svc.Load()
	var changed bool
	if ev.Down {
		changed = svc.FailLink(ev.Link)
	} else {
		changed = svc.RestoreLink(ev.Link)
	}
	if !changed {
		return fmt.Errorf("federation: replica %s: event %d (link %d, down=%v) was a no-op: replica diverged", b.name, ev.Seq, ev.Link, ev.Down)
	}
	return nil
}

func (b *localBackend) Gen(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !b.alive.Load() {
		return 0, ErrReplicaDown
	}
	return b.svc.Load().Gen(), nil
}

func (b *localBackend) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !b.alive.Load() {
		return ErrReplicaDown
	}
	if !b.svc.Load().Ready() {
		return service.ErrDraining
	}
	return nil
}

// Kill implements killRestarter: connection-refused from here on.
func (b *localBackend) Kill() bool { return b.alive.CompareAndSwap(true, false) }

// Restart implements killRestarter: a fresh process image — pristine
// fabric, cold cache, generation 0.
func (b *localBackend) Restart() bool {
	if b.alive.Load() {
		return false
	}
	if old := b.svc.Load(); old != nil {
		p, fb := old.RepairCounts()
		b.retiredPatched.Add(p)
		b.retiredFallback.Add(fb)
	}
	b.svc.Store(service.New(b.newGraph(), b.opts))
	b.alive.Store(true)
	return true
}

// RepairCounts reports the replica's lifetime repair census: the live
// service image plus every image retired by kill/restart cycles.
func (b *localBackend) RepairCounts() (patched, fellBack int64) {
	patched, fellBack = b.retiredPatched.Load(), b.retiredFallback.Load()
	if svc := b.svc.Load(); svc != nil {
		p, fb := svc.RepairCounts()
		patched += p
		fellBack += fb
	}
	return patched, fellBack
}

// Service exposes the live replica service (tests reach through it to
// simulate divergence).
func (b *localBackend) Service() *service.Service { return b.svc.Load() }

func (b *localBackend) Close() {
	if b.alive.Load() {
		b.svc.Load().Close()
	}
}

// --- HTTP backend ----------------------------------------------------

// httpBackend drives one remote peeld replica over its wire API:
// /v1/trees for computation, /v1/chaos/links for event application,
// /v1/stats for the generation probe, /readyz for health.
type httpBackend struct {
	name     string
	base     string // e.g. http://127.0.0.1:7117
	hc       *http.Client
	numNodes int // fabric size, for reconstructing parent vectors
}

// NewHTTPBackend builds a backend for a replica at base. numNodes is the
// fabric's node count (the router knows it from its oracle); it sizes
// reconstructed parent vectors so invariant checks compare like with
// like.
func NewHTTPBackend(name, base string, numNodes int) Backend {
	return &httpBackend{
		name:     name,
		base:     base,
		hc:       &http.Client{Timeout: 30 * time.Second},
		numNodes: numNodes,
	}
}

func (b *httpBackend) Name() string { return b.name }

// post sends a JSON request and decodes a JSON response; transport
// failures wrap ErrReplicaDown so the router treats them as process
// death.
func (b *httpBackend) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := b.hc.Do(hreq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrReplicaDown, err)
	}
	defer hresp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if hresp.StatusCode/100 != 2 {
		return service.StatusError(hresp.StatusCode, raw)
	}
	if resp != nil {
		return json.Unmarshal(raw, resp)
	}
	return nil
}

func (b *httpBackend) TreeFor(ctx context.Context, key string, source topology.NodeID, members []topology.NodeID) (service.TreeInfo, error) {
	wire := make([]int32, 0, len(members)+1)
	wire = append(wire, int32(source))
	for _, m := range members {
		wire = append(wire, int32(m))
	}
	var tr service.TreeResponse
	err := b.post(ctx, "/v1/trees", map[string]any{"members": wire}, &tr)
	if err != nil {
		return service.TreeInfo{}, err
	}
	return service.TreeInfo{
		Tree:       treeFromResponse(tr, b.numNodes),
		Source:     topology.NodeID(tr.Source),
		Cost:       tr.Cost,
		Gen:        tr.Gen,
		CurrentGen: tr.CurrentGen,
		InstallPs:  tr.InstallPs,
		Cached:     tr.Cached,
		Patched:    tr.Patched,
		RepairGen:  tr.RepairGen,
	}, nil
}

// treeFromResponse rebuilds a steiner.Tree from wire edges. Edge order is
// preserved in Members so re-serialization (and the oracle-identical
// parent-vector comparison) reproduces the replica's answer exactly.
func treeFromResponse(tr service.TreeResponse, numNodes int) *steiner.Tree {
	t := &steiner.Tree{
		Source:  topology.NodeID(tr.Source),
		Parent:  make([]topology.NodeID, numNodes),
		Members: make([]topology.NodeID, 0, len(tr.Edges)+1),
	}
	for i := range t.Parent {
		t.Parent[i] = topology.None
	}
	t.Members = append(t.Members, t.Source)
	for _, e := range tr.Edges {
		t.Parent[e[1]] = topology.NodeID(e[0])
		t.Members = append(t.Members, topology.NodeID(e[1]))
	}
	return t
}

func (b *httpBackend) ApplyEvent(ctx context.Context, ev Event) error {
	var resp struct {
		Changed bool `json:"changed"`
	}
	path := fmt.Sprintf("/v1/chaos/links/%d", ev.Link)
	if err := b.post(ctx, path, map[string]bool{"failed": ev.Down}, &resp); err != nil {
		return err
	}
	if !resp.Changed {
		return fmt.Errorf("federation: replica %s: event %d (link %d, down=%v) was a no-op: replica diverged", b.name, ev.Seq, ev.Link, ev.Down)
	}
	return nil
}

func (b *httpBackend) Gen(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrReplicaDown, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return 0, service.StatusError(resp.StatusCode, raw)
	}
	var st struct {
		Gen uint64 `json:"topology_generation"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return 0, err
	}
	return st.Gen, nil
}

func (b *httpBackend) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrReplicaDown, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("federation: replica %s not ready: %d", b.name, resp.StatusCode)
	}
	return nil
}

func (b *httpBackend) Close() {}
