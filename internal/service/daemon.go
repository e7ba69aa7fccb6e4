package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// The daemon: the HTTP/JSON face of the service, shared verbatim between
// cmd/peeld (single-node and federation-router modes) and `peelsim serve`
// so experiments and the long-running deployment exercise one
// construction path. The handlers are written against the API interface,
// so one route table serves both a single *Service and the federation
// router's failover client.
//
// Endpoints (all JSON):
//
//	POST   /v1/groups                {"id","members":[...]}  → 201 GroupInfo
//	GET    /v1/groups/{id}                                   → GroupInfo
//	POST   /v1/groups/{id}/join      {"host":N}              → GroupInfo
//	POST   /v1/groups/{id}/leave     {"host":N}              → GroupInfo
//	GET    /v1/groups/{id}/tree                              → TreeResponse
//	DELETE /v1/groups/{id}                                   → 204
//	POST   /v1/trees                 {"members":[...]}       → TreeResponse (members[0] is the source)
//	POST   /v1/chaos/links/{link}    {"failed":bool}         → {"changed":bool}
//	GET    /v1/stats                                         → Stats
//	GET    /v1/report                                        → telemetry run-report (404 if no sink armed)
//	GET    /healthz                                          → 200 "ok" (pure liveness: up while the process serves)
//	GET    /readyz                                           → 200 "ready" (503 while draining or before the
//	                                                           topology observer is subscribed)
//
// Federation-router instances additionally serve:
//
//	POST   /v1/federation/join       {"name","addr","k"}     → {"events":N} (replica admission + catch-up)
//	GET    /v1/federation                                    → federation census
//
// Error mapping: ErrNoSuchGroup→404, ErrGroupExists→409, ErrOverloaded→429,
// ErrDraining→503, context.DeadlineExceeded→504 (the per-request timeout
// or the client's own deadline expired), membership/validation errors→400,
// unreachable destinations→409 (the fabric cannot currently serve the
// group).

// DaemonConfig configures one daemon instance.
type DaemonConfig struct {
	// Addr is the listen address (default "127.0.0.1:7117"; use port 0 for
	// an ephemeral port in tests).
	Addr string
	// K is the fat-tree arity of the owned fabric (default 8). Ignored
	// when Graph is set.
	K int
	// Graph, when non-nil, is used instead of building a fat-tree.
	Graph *topology.Graph
	// Service options.
	Shards      int
	MaxInflight int
	CacheCap    int
	Seed        int64
	// RequestTimeout bounds each request's context: handlers pass it into
	// the service, so a slow tree computation answers 504 instead of
	// holding the connection forever (default 10s; <0 disables).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 5s).
	DrainTimeout time.Duration
	// OnReady, when set, is called with the bound address once the
	// listener is accepting (tests and peelsim use it to find the port).
	OnReady func(addr string)
	// Aux, when set, attaches an auxiliary listener to the daemon's
	// single-node service before the HTTP listener binds — the wire
	// subscription server above all (cmd packages install it via
	// wire.Hook, keeping this package free of a wire import cycle). The
	// returned stop runs first during shutdown, before the service
	// closes. Requires single-node mode: a federation daemon has no
	// *Service to attach to.
	Aux func(svc *Service) (stop func(), err error)
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7117"
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Daemon binds an API implementation (a single-node Service or a
// federation router client) to an HTTP server.
type Daemon struct {
	cfg      DaemonConfig
	api      API
	svc      *Service // non-nil only in single-node mode
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewDaemon builds the fabric (unless provided), the service, and the
// routing table. The daemon serves nothing until Run.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	cfg = cfg.withDefaults()
	g := cfg.Graph
	if g == nil {
		if cfg.K < 2 || cfg.K%2 != 0 {
			return nil, fmt.Errorf("service: fat-tree arity %d must be even and >= 2", cfg.K)
		}
		g = topology.FatTree(cfg.K)
	}
	svc := New(g, Options{
		Shards:      cfg.Shards,
		MaxInflight: cfg.MaxInflight,
		CacheCap:    cfg.CacheCap,
		Seed:        cfg.Seed,
	})
	d := &Daemon{cfg: cfg, api: svc, svc: svc}
	d.mux = d.routes()
	return d, nil
}

// NewDaemonFor binds an externally constructed API — the federation
// router's client above all — to the shared daemon wiring. Fabric and
// service fields of cfg are ignored; the API owns its own state.
func NewDaemonFor(api API, cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{cfg: cfg, api: api}
	d.mux = d.routes()
	return d
}

// Service returns the daemon's underlying single-node service, or nil
// when the daemon fronts a federation (in-process callers, tests).
func (d *Daemon) Service() *Service { return d.svc }

// API returns whatever the daemon serves.
func (d *Daemon) API() API { return d.api }

// Handler returns the daemon's HTTP handler (httptest servers mount it
// directly).
func (d *Daemon) Handler() http.Handler { return d.mux }

// Run serves until ctx is cancelled, then drains gracefully: the listener
// stops accepting, in-flight requests get DrainTimeout to finish, and the
// service closes (unsubscribing its topology observer). Returns nil on a
// clean drain.
func (d *Daemon) Run(ctx context.Context) error {
	stopAux := func() {}
	if d.cfg.Aux != nil {
		if d.svc == nil {
			return errors.New("service: DaemonConfig.Aux requires a single-node service")
		}
		stop, err := d.cfg.Aux(d.svc)
		if err != nil {
			return err
		}
		stopAux = stop
	}
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		stopAux()
		return err
	}
	srv := &http.Server{Handler: d.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	if d.cfg.OnReady != nil {
		d.cfg.OnReady(ln.Addr().String())
	}
	select {
	case err := <-errCh:
		stopAux()
		d.api.Close()
		return err
	case <-ctx.Done():
	}
	d.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(sctx)
	stopAux()
	d.api.Close()
	if serr := <-errCh; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (d *Daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/groups", d.handleCreate)
	mux.HandleFunc("GET /v1/groups/{id}", d.handleDescribe)
	mux.HandleFunc("POST /v1/groups/{id}/join", d.handleJoin)
	mux.HandleFunc("POST /v1/groups/{id}/leave", d.handleLeave)
	mux.HandleFunc("GET /v1/groups/{id}/tree", d.handleTree)
	mux.HandleFunc("DELETE /v1/groups/{id}", d.handleDelete)
	mux.HandleFunc("POST /v1/trees", d.handleTreeFor)
	mux.HandleFunc("POST /v1/chaos/links/{link}", d.handleChaosLink)
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.HandleFunc("GET /v1/report", d.handleReport)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /readyz", d.handleReady)
	if fed, ok := d.api.(FederationAdmin); ok {
		mux.HandleFunc("POST /v1/federation/join", func(w http.ResponseWriter, r *http.Request) {
			d.handleFederationJoin(fed, w, r)
		})
		mux.HandleFunc("GET /v1/federation", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, fed.FederationCensus())
		})
	}
	return mux
}

// FederationAdmin is implemented by the federation router's client; when
// the daemon's API also implements it, the /v1/federation routes are
// mounted so replicas can self-register over HTTP.
type FederationAdmin interface {
	// FederationJoin admits (or re-admits) a replica reachable at addr and
	// returns the number of failure events replayed during catch-up.
	FederationJoin(name, addr string) (replayed int, err error)
	// FederationCensus reports per-replica health/generation state in a
	// JSON-encodable form.
	FederationCensus() any
}

// reqCtx derives the handler context: the client's own context (cancelled
// when the connection drops — an abandoned request must release its
// admission token) bounded by the configured per-request timeout.
func (d *Daemon) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if d.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d.cfg.RequestTimeout)
}

// groupJSON is the wire form of GroupInfo.
type groupJSON struct {
	ID      string  `json:"id"`
	Source  int32   `json:"source"`
	Members []int32 `json:"members"`
	Version uint64  `json:"version"`
}

func toGroupJSON(gi GroupInfo) groupJSON {
	out := groupJSON{ID: gi.ID, Source: int32(gi.Source), Version: gi.Version}
	out.Members = make([]int32, len(gi.Members))
	for i, m := range gi.Members {
		out.Members[i] = int32(m)
	}
	return out
}

// TreeResponse is the wire form of TreeInfo: the tree as (parent, child)
// edge pairs in member order.
type TreeResponse struct {
	Source     int32      `json:"source"`
	Cost       int        `json:"cost"`
	Gen        uint64     `json:"gen"`
	CurrentGen uint64     `json:"current_gen"`
	InstallPs  int64      `json:"install_ps"`
	Cached     bool       `json:"cached"`
	Patched    bool       `json:"patched"`
	RepairGen  uint64     `json:"repair_gen"`
	Edges      [][2]int32 `json:"edges"`
}

func toTreeResponse(ti TreeInfo) TreeResponse {
	out := TreeResponse{
		Source:     int32(ti.Source),
		Cost:       ti.Cost,
		Gen:        ti.Gen,
		CurrentGen: ti.CurrentGen,
		InstallPs:  ti.InstallPs,
		Cached:     ti.Cached,
		Patched:    ti.Patched,
		RepairGen:  ti.RepairGen,
		Edges:      make([][2]int32, 0, ti.Cost),
	}
	t := ti.Tree
	for _, m := range t.Members {
		if p := t.Parent[m]; p != topology.None {
			out.Edges = append(out.Edges, [2]int32{int32(p), int32(m)})
		}
	}
	return out
}

// httpError maps a service error to its status code.
func httpError(err error) int {
	switch {
	case errors.Is(err, ErrNoSuchGroup):
		return http.StatusNotFound
	case errors.Is(err, ErrGroupExists):
		return http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, steiner.ErrUnreachable):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpError(err), map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	defer io.Copy(io.Discard, r.Body)
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (d *Daemon) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID      string  `json:"id"`
		Members []int32 `json:"members"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	members := make([]topology.NodeID, len(req.Members))
	for i, m := range req.Members {
		members[i] = topology.NodeID(m)
	}
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	gi, err := d.api.CreateGroup(ctx, req.ID, members)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, toGroupJSON(gi))
}

func (d *Daemon) handleDescribe(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	gi, err := d.api.Describe(ctx, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toGroupJSON(gi))
}

func (d *Daemon) memberOp(w http.ResponseWriter, r *http.Request,
	op func(context.Context, string, topology.NodeID) (GroupInfo, error)) {
	var req struct {
		Host int32 `json:"host"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	gi, err := op(ctx, r.PathValue("id"), topology.NodeID(req.Host))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toGroupJSON(gi))
}

func (d *Daemon) handleJoin(w http.ResponseWriter, r *http.Request) {
	d.memberOp(w, r, d.api.Join)
}

func (d *Daemon) handleLeave(w http.ResponseWriter, r *http.Request) {
	d.memberOp(w, r, d.api.Leave)
}

func (d *Daemon) handleTree(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	ti, err := d.api.GetTree(ctx, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toTreeResponse(ti))
}

// handleTreeFor serves explicit-membership tree computation: members[0]
// is the source. This is the call federation routers fan out to replicas
// — replicas hold no group registry, so the membership rides in the
// request.
func (d *Daemon) handleTreeFor(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Members []int32 `json:"members"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	members := make([]topology.NodeID, len(req.Members))
	for i, m := range req.Members {
		members[i] = topology.NodeID(m)
	}
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	ti, err := d.api.TreeFor(ctx, members)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toTreeResponse(ti))
}

func (d *Daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := d.reqCtx(r)
	defer cancel()
	if err := d.api.DeleteGroup(ctx, r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleChaosLink(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("link"))
	if err != nil || id < 0 || id >= d.api.NumLinks() {
		writeErr(w, fmt.Errorf("service: bad link id %q", r.PathValue("link")))
		return
	}
	var req struct {
		Failed bool `json:"failed"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	var changed bool
	if req.Failed {
		changed = d.api.FailLink(topology.LinkID(id))
	} else {
		changed = d.api.RestoreLink(topology.LinkID(id))
	}
	writeJSON(w, http.StatusOK, map[string]bool{"changed": changed})
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.api.StatsJSON())
}

func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	ts := telemetry.Active()
	if ts == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "telemetry not armed (run with -telemetry)"})
		return
	}
	d.api.RefreshGauges()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	ts.Report("peeld").WriteJSON(w)
}

// handleHealth is pure liveness: if the process can answer, it is alive.
// Load balancers deciding whether to route traffic should use /readyz.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

// handleReady is readiness: false while draining and before the service's
// topology observer is subscribed (a not-ready instance may serve stale
// trees because invalidation is not yet wired).
func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() || !d.api.Ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

func (d *Daemon) handleFederationJoin(fed FederationAdmin, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	replayed, err := fed.FederationJoin(req.Name, req.Addr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"events": replayed})
}

// Serve is the shared daemon entry point behind both cmd/peeld and
// `peelsim serve`: build, announce, run until the context is cancelled
// (SIGINT/SIGTERM in the commands), drain, and report the exit code.
func Serve(ctx context.Context, cfg DaemonConfig, stdout, stderr io.Writer) int {
	d, err := NewDaemon(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "peeld: %v\n", err)
		return 1
	}
	ready := cfg.OnReady
	d.cfg.OnReady = func(addr string) {
		fmt.Fprintf(stdout, "peeld: listening on %s (k=%d fabric, %d hosts, %d shards, max-inflight %d)\n",
			addr, d.svc.g.K, len(d.svc.g.Hosts()), len(d.svc.cache.shards), d.svc.opts.MaxInflight)
		if ready != nil {
			ready(addr)
		}
	}
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "peeld: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "peeld: drained cleanly\n")
	return 0
}
