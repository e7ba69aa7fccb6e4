package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"peel/internal/invariant"
	"peel/internal/service"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// PushedTreeMatchesCache: every TREE frame a subscriber receives decodes
// to exactly the tree the control plane's cache currently publishes for
// that group — the wire layer cannot drift from the source of truth it
// distributes.
const PushedTreeMatchesCache = "wire.pushed-tree-matches-cache"

func init() {
	invariant.Register(invariant.Checker{
		Name:   PushedTreeMatchesCache,
		Anchor: "§3.1 (control-plane consistency)",
		Desc:   "every pushed TREE frame round-trips the codec and matches the cache's current tree for the group",
	})
}

// Options configures a wire Server.
type Options struct {
	// QueueDepth bounds each connection's outbound push queue; a full
	// queue sheds the push (the subscriber detects the seq gap and
	// re-syncs). Default 64.
	QueueDepth int
	// WriteTimeout bounds one frame write; a subscriber stalled past it is
	// disconnected (default 10s).
	WriteTimeout time.Duration
	// SockBuf, when >0, shrinks each accepted connection's kernel write
	// buffer — a test knob that makes slow-subscriber shedding observable
	// with small frame counts.
	SockBuf int
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return o
}

// pushMsg is one queued outbound message, shared immutably across the
// connections it fans out to.
type pushMsg struct {
	kind  uint8 // TypeTree, TypePong, TypeError
	gid   string
	gen   uint64
	seq   uint64
	flags uint8
	info  service.TreeInfo // kind == TypeTree
	// invalAt anchors the push-latency histogram for failure pushes.
	invalAt time.Time
	// nonce (pong) / code+msg (error)
	nonce uint64
	code  uint64
	msg   string
}

// groupState is the server-side subscription registry entry for one
// group: its subscriber set and the per-group push sequence.
type groupState struct {
	mu      sync.Mutex
	conns   map[*conn]struct{}
	watch   *service.Watch
	seq     uint64
	lastGen uint64
}

// Server speaks the wire protocol over TCP for one single-node service.
type Server struct {
	svc  *service.Service
	opts Options

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*conn]struct{}
	groups map[string]*groupState
	closed atomic.Bool
	wg     sync.WaitGroup

	hooks atomic.Pointer[wireHooks]

	// Shed/push counters surfaced in Stats (telemetry mirrors them when
	// armed).
	pushes  atomic.Int64
	shed    atomic.Int64
	resyncs atomic.Int64
}

// NewServer builds a server over svc. Serve or ListenAndServe starts it.
func NewServer(svc *service.Service, opts Options) *Server {
	return &Server{
		svc:    svc,
		opts:   opts.withDefaults(),
		conns:  map[*conn]struct{}{},
		groups: map[string]*groupState{},
	}
}

// ListenAndServe binds addr and serves until Close. It returns once the
// listener is bound, reporting the bound address through ready (tests use
// port 0); accept-loop errors after Close are swallowed.
func (s *Server) ListenAndServe(addr string, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listener address ("" before ListenAndServe).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts subscriber connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.startConn(c)
	}
}

// Close stops accepting, disconnects every subscriber, closes all service
// watches, and waits for connection goroutines to drain. Idempotent.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	groups := s.groups
	s.groups = map[string]*groupState{}
	s.mu.Unlock()
	for _, gs := range groups {
		gs.mu.Lock()
		w := gs.watch
		gs.watch = nil
		gs.mu.Unlock()
		if w != nil {
			w.Close()
		}
	}
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
}

// Stats is a point-in-time census of the wire layer.
type Stats struct {
	Conns   int   `json:"conns"`
	Groups  int   `json:"subscribed_groups"`
	Pushes  int64 `json:"pushes"`
	Shed    int64 `json:"shed"`
	Resyncs int64 `json:"resyncs"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{Conns: len(s.conns), Groups: len(s.groups)}
	s.mu.Unlock()
	st.Pushes = s.pushes.Load()
	st.Shed = s.shed.Load()
	st.Resyncs = s.resyncs.Load()
	return st
}

// conn is one subscriber connection: a reader goroutine parsing client
// frames and a writer goroutine draining the bounded outbound queue.
type conn struct {
	s     *Server
	c     net.Conn
	out   chan *pushMsg
	subs  map[string]struct{} // groups this conn subscribed to (reader-owned + mu)
	subMu sync.Mutex
	done  chan struct{}
	once  sync.Once

	encBuf []byte // writer-owned encode scratch, reused every frame
}

func (s *Server) startConn(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if s.opts.SockBuf > 0 {
			tc.SetWriteBuffer(s.opts.SockBuf)
		}
	}
	c := &conn{
		s:    s,
		c:    nc,
		out:  make(chan *pushMsg, s.opts.QueueDepth),
		subs: map[string]struct{}{},
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	n := len(s.conns)
	s.mu.Unlock()
	if h := s.tel(); h != nil {
		h.conns.Set(int64(n))
	}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); c.readLoop() }()
	go func() { defer s.wg.Done(); c.writeLoop() }()
}

// shutdown tears the connection down once: unsubscribes its groups,
// closes the socket, and wakes the writer.
func (c *conn) shutdown() {
	c.once.Do(func() {
		close(c.done)
		c.c.Close()
		c.subMu.Lock()
		subs := make([]string, 0, len(c.subs))
		for gid := range c.subs {
			subs = append(subs, gid)
		}
		c.subs = map[string]struct{}{}
		c.subMu.Unlock()
		for _, gid := range subs {
			c.s.dropSub(c, gid)
		}
		c.s.mu.Lock()
		delete(c.s.conns, c)
		n := len(c.s.conns)
		c.s.mu.Unlock()
		if h := c.s.tel(); h != nil {
			h.conns.Set(int64(n))
		}
	})
}

// enqueue offers a message to the outbound queue; a full queue sheds tree
// pushes (the seq gap tells the subscriber) rather than blocking the
// publisher.
func (c *conn) enqueue(m *pushMsg) {
	select {
	case c.out <- m:
	case <-c.done:
	default:
		c.s.shed.Add(1)
		if h := c.s.tel(); h != nil {
			h.shed.Inc()
		}
	}
}

func (c *conn) readLoop() {
	defer c.shutdown()
	r := NewReader(bufio.NewReaderSize(c.c, 4096))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrVersion) {
				c.enqueue(&pushMsg{kind: TypeError, code: ErrCodeBadFrame, msg: err.Error()})
			}
			return
		}
		switch f.Type {
		case TypeSubscribe:
			gid, _, err := DecodeGroupFrame(f.Type, f.Payload)
			if err != nil {
				c.enqueue(&pushMsg{kind: TypeError, code: ErrCodeBadFrame, msg: err.Error()})
				continue
			}
			c.s.subscribe(c, gid)
		case TypeUnsubscribe:
			gid, _, err := DecodeGroupFrame(f.Type, f.Payload)
			if err != nil {
				continue
			}
			c.subMu.Lock()
			_, had := c.subs[gid]
			delete(c.subs, gid)
			c.subMu.Unlock()
			if had {
				c.s.dropSub(c, gid)
			}
		case TypeResync:
			gid, _, err := DecodeGroupFrame(f.Type, f.Payload)
			if err != nil {
				continue
			}
			c.s.resyncs.Add(1)
			if h := c.s.tel(); h != nil {
				h.resyncs.Inc()
			}
			c.s.sendSnapshot(c, gid, FlagResync)
		case TypePing:
			nonce, err := DecodePing(f.Payload)
			if err != nil {
				continue
			}
			c.enqueue(&pushMsg{kind: TypePong, nonce: nonce})
		default:
			// Server-to-client types arriving here are protocol misuse.
			c.enqueue(&pushMsg{kind: TypeError, code: ErrCodeBadFrame,
				msg: fmt.Sprintf("unexpected frame type %d", f.Type)})
		}
	}
}

func (c *conn) writeLoop() {
	defer c.shutdown()
	for {
		select {
		case <-c.done:
			return
		case m := <-c.out:
			c.encBuf = c.encBuf[:0]
			switch m.kind {
			case TypeTree:
				c.encBuf = AppendTreeFrame(c.encBuf, m.gid, m.gen, m.seq, m.flags, m.info.Tree)
			case TypePong:
				c.encBuf = AppendPing(c.encBuf, TypePong, m.nonce)
			case TypeError:
				c.encBuf = AppendError(c.encBuf, m.code, m.gid, m.msg)
			}
			c.c.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
			if _, err := c.c.Write(c.encBuf); err != nil {
				return
			}
			if m.kind == TypeTree {
				c.s.pushes.Add(1)
				if h := c.s.tel(); h != nil {
					h.pushes.Inc()
					if !m.invalAt.IsZero() {
						h.pushNs.Observe(time.Since(m.invalAt).Nanoseconds())
					}
				}
			}
		}
	}
}

// subscribe registers (c, gid): the first subscriber of a group installs
// a service watch, and every subscriber gets an immediate snapshot so its
// state is primed before any push arrives.
func (s *Server) subscribe(c *conn, gid string) {
	s.mu.Lock()
	gs := s.groups[gid]
	if gs == nil {
		gs = &groupState{conns: map[*conn]struct{}{}}
		s.groups[gid] = gs
	}
	s.mu.Unlock()

	gs.mu.Lock()
	needWatch := gs.watch == nil
	gs.mu.Unlock()
	if needWatch {
		w, err := s.svc.Watch(gid, func(pu service.PushUpdate) { s.onPush(gs, gid, pu) })
		if err != nil {
			s.mu.Lock()
			if cur := s.groups[gid]; cur == gs && len(gs.conns) == 0 {
				delete(s.groups, gid)
			}
			s.mu.Unlock()
			c.enqueue(&pushMsg{kind: TypeError, code: errCodeFor(err), gid: gid, msg: err.Error()})
			return
		}
		gs.mu.Lock()
		if gs.watch == nil {
			gs.watch = w
			w = nil
		}
		gs.mu.Unlock()
		if w != nil {
			w.Close() // lost the race to another subscriber
		}
	}

	gs.mu.Lock()
	gs.conns[c] = struct{}{}
	gs.mu.Unlock()
	c.subMu.Lock()
	c.subs[gid] = struct{}{}
	c.subMu.Unlock()
	if h := s.tel(); h != nil {
		h.subs.Inc()
	}
	s.sendSnapshot(c, gid, FlagResync)
}

func errCodeFor(err error) uint64 {
	if errors.Is(err, service.ErrNoSuchGroup) {
		return ErrCodeNoGroup
	}
	return ErrCodeInternal
}

// dropSub removes (c, gid); the last subscriber of a group closes its
// service watch.
func (s *Server) dropSub(c *conn, gid string) {
	s.mu.Lock()
	gs := s.groups[gid]
	s.mu.Unlock()
	if gs == nil {
		return
	}
	gs.mu.Lock()
	delete(gs.conns, c)
	empty := len(gs.conns) == 0
	var w *service.Watch
	if empty {
		w = gs.watch
		gs.watch = nil
	}
	gs.mu.Unlock()
	if !empty {
		return
	}
	if w != nil {
		w.Close()
	}
	s.mu.Lock()
	if cur := s.groups[gid]; cur == gs {
		gs.mu.Lock()
		if len(gs.conns) == 0 && gs.watch == nil {
			delete(s.groups, gid)
		}
		gs.mu.Unlock()
	}
	s.mu.Unlock()
}

// sendSnapshot fetches the group's current tree and queues it to one
// connection with the resync flag, stamped with the group's current push
// seq so the client's gap detector re-anchors.
func (s *Server) sendSnapshot(c *conn, gid string, flags uint8) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.WriteTimeout)
	ti, err := s.svc.GetTree(ctx, gid)
	cancel()
	if err != nil {
		c.enqueue(&pushMsg{kind: TypeError, code: errCodeFor(err), gid: gid, msg: err.Error()})
		return
	}
	s.mu.Lock()
	gs := s.groups[gid]
	s.mu.Unlock()
	var seq uint64
	if gs != nil {
		gs.mu.Lock()
		seq = gs.seq
		gs.mu.Unlock()
	}
	if ti.Patched {
		flags |= FlagPatched
	}
	m := &pushMsg{kind: TypeTree, gid: gid, gen: ti.Gen, seq: seq, flags: flags, info: ti}
	s.checkPush(gid, m)
	c.enqueue(m)
}

// onPush is the service-watch callback: sequence the update and fan it
// out to every subscriber of the group. Must not block — enqueue sheds.
func (s *Server) onPush(gs *groupState, gid string, pu service.PushUpdate) {
	gs.mu.Lock()
	if pu.Info.Gen < gs.lastGen {
		// A stale publish must never regress a subscriber's generation.
		gs.mu.Unlock()
		return
	}
	gs.lastGen = pu.Info.Gen
	gs.seq++
	m := &pushMsg{
		kind: TypeTree, gid: gid, gen: pu.Info.Gen, seq: gs.seq, info: pu.Info,
		invalAt: pu.InvalidatedAt,
	}
	if pu.Info.Patched {
		m.flags |= FlagPatched
	}
	if pu.Cause == service.CauseFailure {
		m.flags |= FlagFailure
	}
	if pu.Cause == service.CauseEpoch {
		m.flags |= FlagEpoch
	}
	targets := make([]*conn, 0, len(gs.conns))
	for c := range gs.conns {
		targets = append(targets, c)
	}
	gs.mu.Unlock()
	s.checkPush(gid, m)
	for _, c := range targets {
		c.enqueue(m)
	}
}

// checkPush arms the PushedTreeMatchesCache invariant: the frame the
// subscribers will receive must decode back to exactly the tree the
// service cache currently publishes for the group (compared only when the
// generations agree — a concurrent failure may already have superseded
// the cache entry).
func (s *Server) checkPush(gid string, m *pushMsg) {
	iv := invariant.Active()
	if iv == nil {
		return
	}
	buf := AppendTreeFrame(nil, m.gid, m.gen, m.seq, m.flags, m.info.Tree)
	var u TreeUpdate
	if err := DecodeTree(buf[HeaderLen:], &u); err != nil {
		iv.Violatef(PushedTreeMatchesCache, "pushed frame for %q does not decode: %v", gid, err)
		return
	}
	if !edgesMatchTree(u.Edges, m.info.Tree) || u.Source != m.info.Tree.Source {
		iv.Violatef(PushedTreeMatchesCache,
			"pushed frame for %q decodes to a different tree (%d edges vs cost %d)",
			gid, len(u.Edges), m.info.Tree.Cost())
		return
	}
	cached, ok := s.svc.CachedTreeInfo(gid)
	if !ok || cached.Gen != m.gen {
		// The cache moved on (concurrent failure or eviction) — the frame
		// round-tripped its own tree, which is all that can be asserted.
		iv.Pass(PushedTreeMatchesCache)
		return
	}
	iv.Checkf(PushedTreeMatchesCache, edgesMatchTree(u.Edges, cached.Tree),
		"pushed tree for %q (gen %d) differs from the cached tree at the same generation", gid, m.gen)
}

// edgesMatchTree reports whether the decoded edge list is exactly the
// tree's parent relation (same edges, any order).
func edgesMatchTree(edges [][2]topology.NodeID, t *steiner.Tree) bool {
	if t == nil || len(edges) != t.Cost() {
		return false
	}
	for _, e := range edges {
		child := int(e[1])
		if child < 0 || child >= len(t.Parent) || t.Parent[child] != e[0] {
			return false
		}
	}
	return true
}

// telHooks cache, following the service package's pattern: resolve the
// sink's primitives once per sink change, then every hot-path update is
// an atomic.
type wireHooks struct {
	sink    *telemetry.Sink
	conns   *telemetry.Gauge
	subs    *telemetry.Counter
	pushes  *telemetry.Counter
	shed    *telemetry.Counter
	resyncs *telemetry.Counter
	pushNs  *telemetry.Histogram // invalidation → frame-on-the-wire latency
}

func (s *Server) tel() *wireHooks {
	ts := telemetry.Active()
	if ts == nil {
		return nil
	}
	h := s.hooks.Load()
	if h == nil || h.sink != ts {
		h = &wireHooks{
			sink:    ts,
			conns:   ts.Gauge("wire.conns"),
			subs:    ts.Counter("wire.subscribes"),
			pushes:  ts.Counter("wire.pushes"),
			shed:    ts.Counter("wire.shed"),
			resyncs: ts.Counter("wire.resyncs"),
			pushNs:  ts.Histogram("wire.push_ns", telemetry.Log2Layout()),
		}
		s.hooks.Store(h)
	}
	return h
}
