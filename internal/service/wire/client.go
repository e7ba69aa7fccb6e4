package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ClientOptions configures Dial.
type ClientOptions struct {
	// UpdateBuffer sizes the Updates channel (default 256). The receive
	// loop drops updates when the consumer lags — Stats.Dropped counts
	// them — so a slow consumer cannot wedge the connection.
	UpdateBuffer int
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// Reconnect makes the client redial after a broken connection and
	// re-subscribe its groups; off, a broken connection closes Updates.
	Reconnect bool
	// ReconnectBackoff is the initial redial delay (default 50ms, doubling
	// to 32× per consecutive failure).
	ReconnectBackoff time.Duration
	// SockBuf, when >0, shrinks the kernel read buffer — the test knob
	// that, paired with the server's, makes shedding deterministic.
	SockBuf int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.UpdateBuffer <= 0 {
		o.UpdateBuffer = 256
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 50 * time.Millisecond
	}
	return o
}

// ClientStats counts what the subscription saw; all fields grow
// monotonically.
type ClientStats struct {
	Updates     int64 `json:"updates"`     // TREE frames delivered to the consumer
	Gaps        int64 `json:"gaps"`        // seq gaps detected (shed pushes missed)
	Resyncs     int64 `json:"resyncs"`     // RESYNC requests sent
	Regressions int64 `json:"regressions"` // pushes dropped for not advancing the seq
	Reconnects  int64 `json:"reconnects"`  // successful redials after a break
	Dropped     int64 `json:"dropped"`     // updates dropped on a full Updates channel
	Errors      int64 `json:"wire_errors"` // ERROR frames received
}

// groupTrack is the client's per-group gap detector.
type groupTrack struct {
	seq        uint64 // publication version of the last tree accepted
	primed     bool   // a first tree arrived since (re)connect
	retryArmed bool   // a subscribe retry timer is pending
}

// Client is a wire-protocol subscriber: one TCP connection multiplexing
// any number of group subscriptions, delivering pushed trees over a
// channel. Gap detection and re-sync are automatic: a missed (shed) push
// shows up as a sequence jump and triggers a RESYNC; a server restart
// shows up as a broken connection and (with Reconnect) a redial plus
// re-subscription of every group.
type Client struct {
	opts ClientOptions
	addr string

	mu     sync.Mutex
	conn   net.Conn
	groups map[string]*groupTrack
	closed bool

	updates chan TreeUpdate
	done    chan struct{}
	wg      sync.WaitGroup

	nUpdates     atomic.Int64
	nGaps        atomic.Int64
	nResyncs     atomic.Int64
	nRegressions atomic.Int64
	nReconnects  atomic.Int64
	nDropped     atomic.Int64
	nErrors      atomic.Int64

	encBuf []byte // guarded by mu; all writers encode under it
}

// Dial connects to a wire server.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{
		opts:    opts.withDefaults(),
		addr:    addr,
		groups:  map[string]*groupTrack{},
		updates: make(chan TreeUpdate, opts.withDefaults().UpdateBuffer),
		done:    make(chan struct{}),
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.wg.Add(1)
	go c.run(conn)
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if c.opts.SockBuf > 0 {
			tc.SetReadBuffer(c.opts.SockBuf)
		}
	}
	return conn, nil
}

// Updates returns the delivery channel; it closes when the client closes
// or (without Reconnect) the connection breaks.
func (c *Client) Updates() <-chan TreeUpdate { return c.updates }

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Updates:     c.nUpdates.Load(),
		Gaps:        c.nGaps.Load(),
		Resyncs:     c.nResyncs.Load(),
		Regressions: c.nRegressions.Load(),
		Reconnects:  c.nReconnects.Load(),
		Dropped:     c.nDropped.Load(),
		Errors:      c.nErrors.Load(),
	}
}

// Close tears the client down and closes Updates.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
}

// Subscribe registers interest in a group; the server answers with a
// FlagResync snapshot, then pushes every subsequent update.
func (c *Client) Subscribe(gid string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("wire: client closed")
	}
	if c.groups[gid] == nil {
		c.groups[gid] = &groupTrack{}
	}
	return c.sendLocked(func(buf []byte) []byte {
		return AppendGroupFrame(buf, TypeSubscribe, gid)
	})
}

// Unsubscribe drops a group subscription.
func (c *Client) Unsubscribe(gid string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.groups, gid)
	if c.closed || c.conn == nil {
		return nil
	}
	return c.sendLocked(func(buf []byte) []byte {
		return AppendGroupFrame(buf, TypeUnsubscribe, gid)
	})
}

// Ping round-trips a nonce (fire-and-forget; the pong is consumed by the
// receive loop).
func (c *Client) Ping(nonce uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil {
		return errors.New("wire: client closed")
	}
	return c.sendLocked(func(buf []byte) []byte {
		return AppendPing(buf, TypePing, nonce)
	})
}

// sendLocked encodes with enc into the shared buffer and writes the frame
// on the current connection. Callers hold c.mu.
func (c *Client) sendLocked(enc func([]byte) []byte) error {
	if c.conn == nil {
		return errors.New("wire: not connected")
	}
	c.encBuf = enc(c.encBuf[:0])
	_, err := c.conn.Write(c.encBuf)
	return err
}

// resync requests a fresh snapshot for a group after a detected gap.
func (c *Client) resync(gid string) {
	c.nResyncs.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil {
		return
	}
	c.sendLocked(func(buf []byte) []byte {
		return AppendGroupFrame(buf, TypeResync, gid)
	})
}

// run is the connection lifecycle: read frames until the connection
// breaks, then (with Reconnect) redial, re-subscribe, and repeat.
func (c *Client) run(conn net.Conn) {
	defer c.wg.Done()
	defer close(c.updates)
	for {
		c.readLoop(conn)
		if !c.opts.Reconnect {
			return
		}
		backoff := c.opts.ReconnectBackoff
		for {
			select {
			case <-c.done:
				return
			case <-time.After(backoff):
			}
			nc, err := c.dial()
			if err != nil {
				if backoff < 32*c.opts.ReconnectBackoff {
					backoff *= 2
				}
				continue
			}
			if !c.adopt(nc) {
				nc.Close()
				return
			}
			c.nReconnects.Add(1)
			conn = nc
			break
		}
	}
}

// adopt installs a fresh connection: reset every group's gap detector (a
// restarted server's publications start over at seq 1) and re-subscribe.
func (c *Client) adopt(nc net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conn = nc
	for gid, tr := range c.groups {
		*tr = groupTrack{}
		c.sendLocked(func(buf []byte) []byte {
			return AppendGroupFrame(buf, TypeSubscribe, gid)
		})
	}
	return true
}

// readLoop decodes frames off one connection until it breaks.
func (c *Client) readLoop(conn net.Conn) {
	r := NewReader(bufio.NewReaderSize(conn, 8192))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			conn.Close()
			return
		}
		switch f.Type {
		case TypeTree:
			var u TreeUpdate
			if err := DecodeTree(f.Payload, &u); err != nil {
				continue
			}
			c.onTree(u)
		case TypePong:
			// Liveness only; nothing to deliver.
		case TypeError:
			code, gid, msg, err := DecodeError(f.Payload)
			if err != nil {
				continue
			}
			c.nErrors.Add(1)
			c.deliver(TreeUpdate{Group: gid,
				Err: fmt.Errorf("wire: server error %d for %q: %s", code, gid, msg)})
			if c.opts.Reconnect && code == ErrCodeNoGroup {
				// A restarted daemon loses its groups and re-creates them
				// out of band, so a reconnecting client's re-subscribe can
				// race the re-creation. Treat "no such group" as transient
				// and retry until a tree arrives.
				c.armSubscribeRetry(gid)
			}
		}
	}
}

// armSubscribeRetry schedules one SUBSCRIBE retry for a tracked group the
// server does not know (yet). The retry re-arms itself from the next
// ERROR frame, so the client polls the subscription back at
// ReconnectBackoff cadence until the group exists or is unsubscribed.
func (c *Client) armSubscribeRetry(gid string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.groups[gid]
	if tr == nil || tr.primed || tr.retryArmed || c.closed {
		return
	}
	tr.retryArmed = true
	time.AfterFunc(c.opts.ReconnectBackoff, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		tr := c.groups[gid]
		if tr == nil || c.closed {
			return
		}
		tr.retryArmed = false
		if tr.primed {
			return
		}
		c.sendLocked(func(buf []byte) []byte {
			return AppendGroupFrame(buf, TypeSubscribe, gid)
		})
	})
}

// onTree runs the seq protocol for one pushed tree. A snapshot anchors
// the group's seq (the server orders it with the pushes); a push must
// carry the next seq. A seq beyond that means shed pushes were missed:
// the push is delivered and a RESYNC requested. A seq at or below the
// anchor would take the subscriber backwards and is dropped.
func (c *Client) onTree(u TreeUpdate) {
	c.mu.Lock()
	tr := c.groups[u.Group]
	if tr == nil {
		// Not subscribed (late frame after Unsubscribe) — drop.
		c.mu.Unlock()
		return
	}
	gap := false
	if tr.primed && !u.Resync() && u.Seq != tr.seq+1 {
		if u.Seq <= tr.seq {
			c.mu.Unlock()
			c.nRegressions.Add(1)
			return
		}
		gap = true
	}
	tr.seq, tr.primed = u.Seq, true
	c.mu.Unlock()
	if gap {
		c.nGaps.Add(1)
		c.resync(u.Group)
	}
	c.deliver(u)
}

// deliver hands an update to the consumer, dropping (counted) on a full
// channel so a stalled consumer cannot block the read loop.
func (c *Client) deliver(u TreeUpdate) {
	select {
	case c.updates <- u:
		c.nUpdates.Add(1)
	default:
		c.nDropped.Add(1)
	}
}
