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
// to exactly the service's publication for that (group, version) — the
// wire layer cannot drift from the source of truth it distributes.
const PushedTreeMatchesCache = "wire.pushed-tree-matches-cache"

func init() {
	invariant.Register(invariant.Checker{
		Name:   PushedTreeMatchesCache,
		Anchor: "§3.1 (control-plane consistency)",
		Desc:   "every TREE frame written decodes to the service's publication for its (group, version)",
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

// pushMsg is one queued outbound message.
type pushMsg struct {
	kind uint8              // TypeTree, TypePong, TypeError
	pub  service.PushUpdate // kind == TypeTree: the publication to send
	// nonce (pong) / code+gid+msg (error)
	nonce uint64
	code  uint64
	gid   string
	msg   string
}

// Server speaks the wire protocol over TCP for one single-node service.
type Server struct {
	svc  *service.Service
	opts Options

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*conn]struct{}
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
		svc:   svc,
		opts:  opts.withDefaults(),
		conns: map[*conn]struct{}{},
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

// Close stops accepting, disconnects every subscriber (closing its
// service watches), and waits for connection goroutines to drain.
// Idempotent.
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
	s.mu.Unlock()
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
	groups := map[string]struct{}{}
	s.mu.Lock()
	st := Stats{Conns: len(s.conns)}
	for c := range s.conns {
		c.subMu.Lock()
		for gid := range c.subs {
			groups[gid] = struct{}{}
		}
		c.subMu.Unlock()
	}
	s.mu.Unlock()
	st.Groups = len(groups)
	st.Pushes = s.pushes.Load()
	st.Shed = s.shed.Load()
	st.Resyncs = s.resyncs.Load()
	return st
}

// conn is one subscriber connection: a reader goroutine parsing client
// frames and a writer goroutine draining the bounded outbound queue. Each
// subscribed group has its own service watch, so the service delivers the
// connection's snapshots and pushes of a group in version order.
type conn struct {
	s     *Server
	c     net.Conn
	out   chan *pushMsg
	subs  map[string]*service.Watch // nil once shut down; guarded by subMu
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
		subs: map[string]*service.Watch{},
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

// shutdown tears the connection down once: closes its watches and the
// socket, and wakes the writer.
func (c *conn) shutdown() {
	c.once.Do(func() {
		close(c.done)
		c.c.Close()
		c.subMu.Lock()
		subs := c.subs
		c.subs = nil
		c.subMu.Unlock()
		for _, w := range subs {
			w.Close()
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
			gid, err := DecodeGroupFrame(f.Payload)
			if err != nil {
				c.enqueue(&pushMsg{kind: TypeError, code: ErrCodeBadFrame, msg: err.Error()})
				continue
			}
			c.subscribe(gid)
		case TypeUnsubscribe:
			gid, err := DecodeGroupFrame(f.Payload)
			if err != nil {
				continue
			}
			c.subMu.Lock()
			w := c.subs[gid]
			delete(c.subs, gid)
			c.subMu.Unlock()
			if w != nil {
				w.Close()
			}
		case TypeResync:
			gid, err := DecodeGroupFrame(f.Payload)
			if err != nil {
				continue
			}
			c.s.resyncs.Add(1)
			if h := c.s.tel(); h != nil {
				h.resyncs.Inc()
			}
			c.subMu.Lock()
			w := c.subs[gid]
			c.subMu.Unlock()
			if w != nil {
				c.snapshot(w, gid)
			}
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
				pu := &m.pub
				c.encBuf = AppendTreeFrame(c.encBuf, pu.Group, pu.Info.Gen, pu.Version, frameFlags(pu), pu.Info.Tree)
				checkFrame(c.encBuf, pu)
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
					if at := m.pub.InvalidatedAt; !at.IsZero() {
						h.pushNs.Observe(time.Since(at).Nanoseconds())
					}
				}
			}
		}
	}
}

// subscribe registers the connection on group gid through its own
// service watch and answers with a snapshot of the group's publication; a
// repeated SUBSCRIBE only sends the snapshot again.
func (c *conn) subscribe(gid string) {
	c.subMu.Lock()
	w := c.subs[gid]
	c.subMu.Unlock()
	if w == nil {
		var err error
		w, err = c.s.svc.Watch(gid, func(pu service.PushUpdate) { c.enqueue(&pushMsg{kind: TypeTree, pub: pu}) })
		if err != nil {
			c.enqueue(&pushMsg{kind: TypeError, code: errCodeFor(err), gid: gid, msg: err.Error()})
			return
		}
		c.subMu.Lock()
		live := c.subs != nil
		if live {
			c.subs[gid] = w
		}
		c.subMu.Unlock()
		if !live {
			w.Close() // the connection shut down meanwhile
			return
		}
		if h := c.s.tel(); h != nil {
			h.subs.Inc()
		}
	}
	c.snapshot(w, gid)
}

func errCodeFor(err error) uint64 {
	if errors.Is(err, service.ErrNoSuchGroup) {
		return ErrCodeNoGroup
	}
	return ErrCodeInternal
}

// snapshot has the service deliver the group's current publication through
// w, ordered with its pushes; the writer flags it FlagResync.
func (c *conn) snapshot(w *service.Watch, gid string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.s.opts.WriteTimeout)
	err := w.Snapshot(ctx)
	cancel()
	if err != nil {
		c.enqueue(&pushMsg{kind: TypeError, code: errCodeFor(err), gid: gid, msg: err.Error()})
	}
}

// frameFlags maps a publication onto TREE frame flags.
func frameFlags(pu *service.PushUpdate) uint8 {
	var fl uint8
	if pu.Info.Patched {
		fl |= FlagPatched
	}
	switch pu.Cause {
	case service.CauseFailure:
		fl |= FlagFailure
	case service.CauseEpoch:
		fl |= FlagEpoch
	case service.CauseSnapshot:
		fl |= FlagResync
	}
	return fl
}

// checkFrame arms the PushedTreeMatchesCache invariant on the bytes about
// to be written: the frame must decode to the publication it carries —
// its group, its version as seq, its compute generation, and exactly its
// tree's edges.
func checkFrame(frame []byte, pu *service.PushUpdate) {
	iv := invariant.Active()
	if iv == nil {
		return
	}
	var u TreeUpdate
	if err := DecodeTree(frame[HeaderLen:], &u); err != nil {
		iv.Violatef(PushedTreeMatchesCache, "frame for %q (seq %d) does not decode: %v", pu.Group, pu.Version, err)
		return
	}
	iv.Checkf(PushedTreeMatchesCache,
		u.Group == pu.Group && u.Seq == pu.Version && u.Gen == pu.Info.Gen &&
			u.Source == pu.Info.Tree.Source && edgesMatchTree(u.Edges, pu.Info.Tree),
		"frame for %q (seq %d, gen %d, %d edges) differs from the publication (version %d, gen %d, cost %d)",
		pu.Group, u.Seq, u.Gen, len(u.Edges), pu.Version, pu.Info.Gen, pu.Info.Tree.Cost())
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
