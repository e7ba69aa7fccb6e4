package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	"peel/internal/service"
	"peel/internal/service/wire"
	"peel/internal/topology"
)

// The service workloads drive peeld over loopback TCP: the daemon
// (service.NewDaemon on a real listener) and the clients share one
// process, and every request crosses 127.0.0.1. Load is a closed loop —
// each caller is a collective library about to start a broadcast, which
// waits for its tree before asking again — from e.nproc keep-alive
// HTTP/1.1 connections.

// peeld is one running daemon plus what a round needs to reach it.
type peeld struct {
	svc      *service.Service
	wire     *wire.Server // nil unless started with the wire listener
	base     string       // http://127.0.0.1:port
	wireAddr string
	cancel   context.CancelFunc
	done     chan error
}

// startPeeld serves g on an ephemeral loopback port. cacheCap is the
// per-shard entry cap (0 = the daemon's default); withWire also attaches
// the push-protocol listener.
func startPeeld(g *topology.Graph, cacheCap int, withWire bool) (*peeld, error) {
	p := &peeld{done: make(chan error, 1)}
	ready := make(chan string, 1)
	cfg := service.DaemonConfig{
		Addr:     "127.0.0.1:0",
		Graph:    g,
		CacheCap: cacheCap,
		OnReady:  func(addr string) { ready <- addr },
	}
	if withWire {
		cfg.Aux = func(svc *service.Service) (func(), error) {
			p.wire = wire.NewServer(svc, wire.Options{})
			err := p.wire.ListenAndServe("127.0.0.1:0", func(addr string) { p.wireAddr = addr })
			return p.wire.Close, err
		}
	}
	d, err := service.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	p.svc = d.Service()
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	go func() { p.done <- d.Run(ctx) }()
	select {
	case addr := <-ready:
		p.base = "http://" + addr
		return p, nil
	case err := <-p.done:
		cancel()
		return nil, fmt.Errorf("peeld did not start: %w", err)
	}
}

// stop drains the daemon (and its wire server) and waits for Run.
func (p *peeld) stop() error {
	p.cancel()
	return <-p.done
}

// treeResp is the benchmark's own reading of a tree response: a change
// to the daemon's JSON shape must show up here as a failed decode or a
// failed check, not be followed silently through a shared type.
type treeResp struct {
	Source topology.NodeID      `json:"source"`
	Gen    uint64               `json:"gen"`
	Cached bool                 `json:"cached"`
	Edges  [][2]topology.NodeID `json:"edges"`
}

// client is one closed-loop caller: its own buffers and checker over a
// shared keep-alive transport.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
	req  []byte
	resp treeResp
	chk  *treeChecker
}

func newClients(n int, base string, ref *topology.Graph) []*client {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{hc: hc, base: base, chk: newTreeChecker(ref)}
	}
	return cs
}

func closeClients(cs []*client) { cs[0].hc.CloseIdleConnections() }

// do sends one request and reads the whole response into c.body.
func (c *client) do(method, path string, body []byte) (status int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// membersJSON renders {"id":"…","members":[…]} (id omitted when empty)
// into c.req.
func (c *client) membersJSON(id string, members []topology.NodeID) []byte {
	b := append(c.req[:0], '{')
	if id != "" {
		b = append(b, `"id":`...)
		b = strconv.AppendQuote(b, id)
		b = append(b, ',')
	}
	b = append(b, `"members":[`...)
	for i, m := range members {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(m), 10)
	}
	c.req = append(b, "]}"...)
	return c.req
}

// tree performs one tree request and checks the answer from outside:
// status 200, edges forming a tree rooted at members[0] that spans every
// member over links the benchmark knows to be up, and the cached flag the
// workload expects. The returned latency covers the request and the read
// of the full response, not the checking.
func (c *client) tree(tr *tracer, method, path string, body []byte, members []topology.NodeID, wantCached bool) (latUs float64, err error) {
	op := tr.newOp()
	root := tr.start(op, noSpan, "bench.request")
	defer tr.end(root)
	s := tr.start(op, root, "daemon.http")
	t0 := nowNs()
	status, err := c.do(method, path, body)
	latUs = float64(nowNs()-t0) / 1e3
	tr.end(s)
	if err != nil {
		return latUs, err
	}
	if status != http.StatusOK {
		return latUs, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(c.body.Bytes()))
	}
	s = tr.start(op, root, "bench.decode")
	err = json.Unmarshal(c.body.Bytes(), &c.resp)
	tr.end(s)
	if err != nil {
		return latUs, fmt.Errorf("%s %s: %w", method, path, err)
	}
	s = tr.start(op, root, "bench.validate")
	err = c.chk.check(c.resp.Source, c.resp.Edges, members)
	tr.end(s)
	if err == nil && c.resp.Cached != wantCached {
		err = fmt.Errorf("cached=%v, want %v", c.resp.Cached, wantCached)
	}
	if err != nil {
		return latUs, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return latUs, nil
}

// closedLoop performs operations 0..n-1, operation i on client i mod
// len(cs), each client strictly one at a time, and adds the latencies of
// the ones that succeeded and the count of those that failed to r.
func closedLoop(r *round, cs []*client, n int, op func(c *client, i int) (float64, error)) {
	lat := make([][]float64, len(cs))
	failed := make([]int, len(cs))
	var wg sync.WaitGroup
	var noteMu sync.Mutex
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat[ci] = make([]float64, 0, n/len(cs)+1)
			for i := ci; i < n; i += len(cs) {
				l, err := op(c, i)
				if err != nil {
					failed[ci]++
					noteMu.Lock()
					r.note("op %d: %v", i, err)
					noteMu.Unlock()
					continue
				}
				lat[ci] = append(lat[ci], l)
			}
		}()
	}
	wg.Wait()
	r.Ops += n
	for ci := range cs {
		r.Lat = append(r.Lat, lat[ci]...)
		r.Failed += failed[ci]
	}
}

// ---- svc-hit -------------------------------------------------------------

func runSvcHit(e *env) (_ *round, err error) {
	r := newRound()
	tr := e.tr
	sc := e.scale
	t0 := nowNs()
	op := tr.newOp()
	root := tr.start(op, noSpan, "bench.setup")
	s := tr.start(op, root, "topology.fattree")
	g := topology.FatTree(sc.bigK)
	tr.end(s)
	ref := g.Clone()
	s = tr.start(op, root, "daemon.start")
	p, err := startPeeld(g, 0, false)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, p.stop()) }()
	cs := newClients(e.nproc, p.base, ref)
	defer closeClients(cs)

	s = tr.start(op, root, "daemon.create_groups")
	groups, err := createGroups(cs[0], stream(e.seed, saltGroups), ref.Hosts(), sc.hitGroups, sc.bigMembers)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.start(op, root, "daemon.warm")
	for gi, members := range groups {
		// The first request for a group computes its tree; every later
		// one must be a hit.
		if _, err := cs[0].tree(nil, "GET", groupTreePath(gi), nil, members, false); err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
	}
	tr.end(s)
	// Zipf(1.3) popularity: a few hot groups, a long tail, all resident.
	pick := make([][]int32, e.nproc)
	for ci := range pick {
		z := rand.NewZipf(stream(e.seed, saltRequests+ci), 1.3, 1, uint64(len(groups)-1))
		pick[ci] = make([]int32, sc.hitRequests/e.nproc+1)
		for i := range pick[ci] {
			pick[ci][i] = int32(z.Uint64())
		}
	}
	paths := make([]string, len(groups))
	for gi := range paths {
		paths[gi] = groupTreePath(gi)
	}
	tr.end(root)
	r.Setup = secondsSince(t0)

	r.timed(func() {
		closedLoop(r, cs, sc.hitRequests, func(c *client, i int) (float64, error) {
			gi := pick[i%e.nproc][i/e.nproc]
			return c.tree(tr, "GET", paths[gi], nil, groups[gi], true)
		})
	})
	r.Counts["service.cache_entries"] = float64(p.svc.Stats().CacheEntries)
	return r, nil
}

func groupTreePath(gi int) string { return "/v1/groups/g" + strconv.Itoa(gi) + "/tree" }

// createGroups registers n groups of k members (source first) named
// g0..g{n-1} over HTTP and returns their member lists.
func createGroups(c *client, rng *rand.Rand, hosts []topology.NodeID, n, k int) ([][]topology.NodeID, error) {
	gen := newMemberGen(rng, hosts)
	groups := make([][]topology.NodeID, n)
	for gi := range groups {
		groups[gi] = gen.draw(k)
		status, err := c.do("POST", "/v1/groups", c.membersJSON("g"+strconv.Itoa(gi), groups[gi]))
		if err != nil {
			return nil, err
		}
		if status != http.StatusCreated {
			return nil, fmt.Errorf("create group g%d: status %d: %s", gi, status, bytes.TrimSpace(c.body.Bytes()))
		}
	}
	return groups, nil
}

// ---- svc-miss and svc-evict ------------------------------------------------

// runSvcMiss: every request is a never-repeated member set on a fabric
// with 2 % of its switch–switch links down, and the cache stays below its
// cap, so each one canonicalises, peels, validates, encodes and returns.
func runSvcMiss(e *env) (*round, error) {
	sc := e.scale
	return runTreeFor(e, sc.bigK, sc.bigMembers, 0.02, 0, 0, sc.missRequests)
}

// runSvcEvict: the same endpoint with the opposite bottleneck. Set-up
// fills the cache to its cap in process, so every request also evicts.
func runSvcEvict(e *env) (*round, error) {
	sc := e.scale
	return runTreeFor(e, sc.smallK, sc.smallMembers, 0, sc.evictCap, sc.evictFill, sc.evictRequests)
}

func runTreeFor(e *env, k, members int, failFrac float64, cacheCap, fill, requests int) (_ *round, err error) {
	r := newRound()
	tr := e.tr
	t0 := nowNs()
	op := tr.newOp()
	root := tr.start(op, noSpan, "bench.setup")
	s := tr.start(op, root, "topology.fattree")
	g := topology.FatTree(k)
	tr.end(s)
	if failFrac > 0 {
		g.FailRandomFraction(failFrac, topology.SwitchLinks, stream(e.seed, saltFailed))
	}
	ref := g.Clone()
	s = tr.start(op, root, "daemon.start")
	p, err := startPeeld(g, cacheCap, false)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, p.stop()) }()
	cs := newClients(e.nproc, p.base, ref)
	defer closeClients(cs)

	gen := newMemberGen(stream(e.seed, saltRequests), ref.Hosts())
	if fill > 0 {
		s = tr.start(op, root, "service.fill_cache")
		sets := make([][]topology.NodeID, fill)
		for i := range sets {
			sets[i] = gen.draw(members)
		}
		err = forEach(e.nproc, fill, func(i int) error {
			_, err := p.svc.TreeFor(context.Background(), sets[i])
			return err
		})
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("cache fill: %w", err)
		}
	}
	sets := make([][]topology.NodeID, requests)
	for i := range sets {
		sets[i] = gen.draw(members)
	}
	entries := p.svc.Stats().CacheEntries
	tr.end(root)
	r.Setup = secondsSince(t0)

	r.timed(func() {
		closedLoop(r, cs, requests, func(c *client, i int) (float64, error) {
			return c.tree(tr, "POST", "/v1/trees", c.membersJSON("", sets[i]), sets[i], false)
		})
	})
	after := p.svc.Stats().CacheEntries
	// Every request inserts one new key, so what the cache did not grow
	// by, it evicted.
	r.Counts["service.evictions"] = float64(requests - (after - entries))
	r.Counts["service.cache_entries"] = float64(after)
	if fill > 0 && r.Counts["service.evictions"] != float64(requests) {
		r.failCheck("cache was not at its cap: %d evictions for %d requests (%d entries before, %d after)",
			int(r.Counts["service.evictions"]), requests, entries, after)
	}
	return r, nil
}
