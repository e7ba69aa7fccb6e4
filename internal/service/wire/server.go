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
	// WriteTimeout bounds one write to a subscriber; a subscriber stalled
	// past it is disconnected (default 10s).
	WriteTimeout time.Duration
}

// maxCtl bounds the encoded PONG and ERROR frames a connection holds for
// its writer: a client that sends PINGs and never reads loses pongs past
// this, instead of growing the server's memory.
const maxCtl = 16 << 10

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

	// Counters surfaced in Stats (telemetry mirrors them when armed).
	pushes  atomic.Int64
	shed    atomic.Int64
	resyncs atomic.Int64
}

// NewServer builds a server over svc. Serve or ListenAndServe starts it.
func NewServer(svc *service.Service, opts Options) *Server {
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	return &Server{svc: svc, opts: opts, conns: map[*conn]struct{}{}}
}

// ListenAndServe binds addr and serves until Close. It returns once the
// listener is bound, reporting the bound address through ready (tests use
// port 0).
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

// Serve accepts subscriber connections on ln until Close or ln closes,
// then returns nil. A failed accept (EMFILE in a connection burst, say)
// does not end the listener: Serve backs off, doubling from 5ms to at
// most 1s, and accepts again, as net/http does.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
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
	Pushes  int64 `json:"pushes"`  // TREE frames written
	Shed    int64 `json:"shed"`    // publications a cell replaced before they were written
	Resyncs int64 `json:"resyncs"` // repeated SUBSCRIBEs for a group already held
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	groups := map[string]struct{}{}
	s.mu.Lock()
	st := Stats{Conns: len(s.conns)}
	for c := range s.conns {
		c.mu.Lock()
		for gid := range c.subs {
			groups[gid] = struct{}{}
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	st.Groups = len(groups)
	st.Pushes = s.pushes.Load()
	st.Shed = s.shed.Load()
	st.Resyncs = s.resyncs.Load()
	return st
}

// conn is one subscriber connection: a reader goroutine parsing client
// frames and a writer goroutine sending what the subscriptions' cells and
// the control buffer hold. Each subscribed group has its own service
// watch, whose callback only stores into the group's cell and wakes the
// writer, so a publish never waits on a socket and a connection's memory
// is bounded by its subscriptions.
type conn struct {
	s    *Server
	c    net.Conn
	wake chan struct{} // a pending wake-up for the writer
	done chan struct{}
	once sync.Once

	mu   sync.Mutex
	subs map[string]*sub // nil once shut down
	ctl  []byte          // encoded PONG and ERROR frames, at most maxCtl bytes

	// Writer-owned scratch, reused every batch.
	batch  []service.PushUpdate
	encBuf []byte
}

// sub is one (connection, group) subscription. Its cell is the group's
// latest publication not yet sent: a newer one replaces it, and the writer
// sends whatever it holds when it drains.
type sub struct {
	w       *service.Watch
	pub     service.PushUpdate // the cell; guarded by conn.mu
	dirty   bool               // pub has not been sent
	resyncs int                // SUBSCRIBEs the next send answers
}

func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		s:    s,
		c:    nc,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		subs: map[string]*sub{},
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
		c.mu.Lock()
		subs := c.subs
		c.subs = nil
		c.mu.Unlock()
		for _, sb := range subs {
			sb.w.Close()
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

// signal wakes the writer without blocking.
func (c *conn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// store is sb's watch callback. It runs under the service's watch lock,
// so it only replaces the cell and wakes the writer: an unsent
// publication it replaces is shed. A snapshot marks the cell as owing one
// more FlagResync frame, so a push that lands after it cannot swallow it.
func (c *conn) store(sb *sub, pu service.PushUpdate) {
	c.mu.Lock()
	if sb.dirty && sb.pub.Version < pu.Version {
		c.s.shed.Add(1)
		if h := c.s.tel(); h != nil {
			h.shed.Inc()
		}
	}
	if pu.Cause == service.CauseSnapshot {
		sb.resyncs++
	}
	sb.pub, sb.dirty = pu, true
	c.mu.Unlock()
	c.signal()
}

// sendCtl appends a control frame for the writer, dropping it once
// maxCtl bytes are waiting, so the reader never blocks on the socket.
func (c *conn) sendCtl(enc func([]byte) []byte) {
	c.mu.Lock()
	if len(c.ctl) < maxCtl {
		c.ctl = enc(c.ctl)
	}
	c.mu.Unlock()
	c.signal()
}

func (c *conn) sendError(code uint64, gid, msg string) {
	c.sendCtl(func(b []byte) []byte { return AppendError(b, code, gid, msg) })
}

func (c *conn) readLoop() {
	defer c.shutdown()
	r := NewReader(bufio.NewReaderSize(c.c, 4096))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrVersion) {
				c.sendError(ErrCodeBadFrame, "", err.Error())
			}
			return
		}
		switch f.Type {
		case TypeSubscribe:
			gid, err := DecodeGroupFrame(f.Payload)
			if err != nil {
				c.sendError(ErrCodeBadFrame, "", err.Error())
				continue
			}
			c.subscribe(gid)
		case TypeUnsubscribe:
			gid, err := DecodeGroupFrame(f.Payload)
			if err != nil {
				continue
			}
			// Deleting the subscription also drops its unsent cell.
			c.mu.Lock()
			sb := c.subs[gid]
			delete(c.subs, gid)
			c.mu.Unlock()
			if sb != nil {
				sb.w.Close()
			}
		case TypePing:
			nonce, err := DecodePing(f.Payload)
			if err != nil {
				continue
			}
			c.sendCtl(func(b []byte) []byte { return AppendPing(b, TypePong, nonce) })
		default:
			// Server-to-client types arriving here are protocol misuse.
			c.sendError(ErrCodeBadFrame, "", fmt.Sprintf("unexpected frame type %d", f.Type))
		}
	}
}

// drain takes the control frames and every dirty cell, and encodes them
// into one buffer: control frames first, then one TREE frame per cell (one
// per owed snapshot), each checked on its exact bytes. It returns the
// buffer and the publications it encodes.
func (c *conn) drain() ([]byte, []service.PushUpdate) {
	c.mu.Lock()
	buf := append(c.encBuf[:0], c.ctl...)
	c.ctl = c.ctl[:0]
	batch := c.batch[:0]
	for _, sb := range c.subs {
		if !sb.dirty {
			continue
		}
		pu := sb.pub
		if sb.resyncs > 0 {
			pu.Cause, pu.InvalidatedAt = service.CauseSnapshot, time.Time{}
		}
		for i := 0; i < max(sb.resyncs, 1); i++ {
			batch = append(batch, pu)
		}
		sb.dirty, sb.resyncs = false, 0
	}
	c.mu.Unlock()
	for i := range batch {
		pu := &batch[i]
		start := len(buf)
		buf = AppendTreeFrame(buf, pu.Group, pu.Info.Gen, pu.Version, frameFlags(pu), pu.Info.Tree)
		checkFrame(buf[start:], pu)
	}
	c.encBuf, c.batch = buf, batch
	return buf, batch
}

func (c *conn) writeLoop() {
	defer c.shutdown()
	for {
		select {
		case <-c.done:
			return
		case <-c.wake:
		}
		buf, batch := c.drain()
		if len(buf) == 0 {
			continue
		}
		c.c.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
		if _, err := c.c.Write(buf); err != nil {
			return
		}
		c.s.pushes.Add(int64(len(batch)))
		if h := c.s.tel(); h != nil {
			for i := range batch {
				h.pushes.Inc()
				if at := batch[i].InvalidatedAt; !at.IsZero() {
					h.pushNs.Observe(time.Since(at).Nanoseconds())
				}
			}
		}
	}
}

// subscribe registers the connection on group gid through its own
// service watch and answers with a snapshot of the group's publication; a
// repeated SUBSCRIBE only sends the snapshot again.
func (c *conn) subscribe(gid string) {
	c.mu.Lock()
	sb := c.subs[gid]
	c.mu.Unlock()
	if sb != nil {
		c.s.resyncs.Add(1)
		if h := c.s.tel(); h != nil {
			h.resyncs.Inc()
		}
	} else {
		sb = &sub{}
		w, err := c.s.svc.Watch(gid, func(pu service.PushUpdate) { c.store(sb, pu) })
		if err != nil {
			c.sendError(errCodeFor(err), gid, err.Error())
			return
		}
		sb.w = w
		c.mu.Lock()
		live := c.subs != nil
		if live {
			c.subs[gid] = sb
		}
		c.mu.Unlock()
		if !live {
			w.Close() // the connection shut down meanwhile
			return
		}
		c.signal() // for a push that landed before the cell was listed
		if h := c.s.tel(); h != nil {
			h.subs.Inc()
		}
	}
	// The service delivers the snapshot through the watch, ordered with
	// its pushes, so the cell it lands in never moves backwards.
	ctx, cancel := context.WithTimeout(context.Background(), c.s.opts.WriteTimeout)
	err := sb.w.Snapshot(ctx)
	cancel()
	if err != nil {
		c.sendError(errCodeFor(err), gid, err.Error())
	}
}

func errCodeFor(err error) uint64 {
	if errors.Is(err, service.ErrNoSuchGroup) {
		return ErrCodeNoGroup
	}
	return ErrCodeInternal
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
