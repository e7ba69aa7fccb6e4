// Package wire is peeld's framed binary subscription protocol: a
// persistent-connection alternative to polling GET /v1/groups/{id}/tree.
// Clients SUBSCRIBE to groups over one TCP connection; on failure-driven
// invalidation the service re-peels (patch-first) and *pushes* the new
// tree to every subscriber, turning the §3.1 install latency into a
// measurable propagation latency instead of an invisible polling gap.
// Elmo (PAPERS.md, arXiv 1802.09815) is the motivating design point for
// pushing multicast state to endpoints at cloud scale.
//
// Every frame is an 8-byte header followed by a length-prefixed payload:
//
//	offset  size  field
//	0       1     magic 'P' (0x50)
//	1       1     magic 'W' (0x57)
//	2       1     protocol version (2)
//	3       1     frame type
//	4       4     payload length, big-endian uint32 (≤ MaxPayload)
//
// Payloads are unsigned varints (encoding/binary) plus raw bytes:
//
//	SUBSCRIBE / UNSUBSCRIBE / RESYNC:  gidLen gid
//	PING / PONG:              nonce
//	TREE (server push):       gidLen gid gen seq flags(1B) source nEdges
//	                          nEdges × (parent child)
//	ERROR:                    code gidLen gid msgLen msg
//
// TREE edges are emitted in tree-member insertion order, so a fixed tree
// encodes to one byte string — the golden session test pins it. Seq is
// the group's publication version (service.PushUpdate.Version): one
// (group, seq) pair names exactly one tree, whether it arrives as a push
// or as a snapshot, and the next push of a group carries seq+1. A
// subscriber that sees seq jump by more than one missed a shed push and
// re-syncs with RESYNC; the server answers with a FlagResync snapshot of
// the current publication. Gen is information only — the topology
// generation the tree was computed at, which the loadgen propagation
// probe joins against its flap stamps; nothing orders or drops on it.
// Version 2 dropped the RESYNC frame's gen field, which no server read.
//
// Encoding appends into caller-owned buffers (steady-state push encode is
// 0 allocs/op, CI-pinned); decoding never allocates proportionally to
// attacker-controlled lengths and never reads past the frame payload —
// FuzzWireDecode holds the codec to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"peel/internal/steiner"
	"peel/internal/topology"
)

// Protocol constants.
const (
	magic0  = 'P'
	magic1  = 'W'
	Version = 2

	// HeaderLen is the fixed frame-header size.
	HeaderLen = 8
	// MaxPayload bounds one frame's payload; a header announcing more is a
	// protocol error, so a corrupt length cannot make a reader allocate or
	// buffer unboundedly.
	MaxPayload = 1 << 20
	// maxGroupID bounds group-ID strings on the wire.
	maxGroupID = 256
)

// Frame types.
const (
	TypeSubscribe   = 1 // client → server
	TypeUnsubscribe = 2 // client → server
	TypeResync      = 3 // client → server: re-request the current tree
	TypePing        = 4 // client → server
	TypePong        = 5 // server → client
	TypeTree        = 6 // server → client: pushed tree update
	TypeError       = 7 // server → client
	typeMax         = TypeError
)

// TREE frame flag bits.
const (
	// FlagPatched marks a tree produced by incremental repair rather than
	// a full peel.
	FlagPatched = 1 << 0
	// FlagResync marks a snapshot sent in response to SUBSCRIBE or RESYNC
	// (not a spontaneous invalidation push).
	FlagResync = 1 << 1
	// FlagFailure marks a push triggered by failure-driven invalidation —
	// the frames whose propagation latency the loadgen probe measures.
	FlagFailure = 1 << 2
	// FlagEpoch marks a pre-peeled tree pushed ahead of an announced
	// fabric reconfiguration (service.CauseEpoch): the subscriber should
	// cut over before the epoch boundary, no resync needed.
	FlagEpoch = 1 << 3
)

// ERROR frame codes.
const (
	ErrCodeNoGroup  = 1 // subscribed group does not exist
	ErrCodeBadFrame = 2 // unparseable or oversized client frame
	ErrCodeInternal = 3 // server-side failure computing the tree
)

var (
	// ErrBadFrame covers every malformed-input decode failure.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrVersion reports a frame from an incompatible protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
)

// TreeUpdate is one decoded TREE frame: the group's current multicast
// tree as (parent, child) edges, stamped with the group's publication
// version and the topology generation it was computed at.
type TreeUpdate struct {
	Group  string
	Gen    uint64 // topology generation of the compute (information only)
	Seq    uint64 // the group's publication version (gap ⇒ a shed push was missed)
	Flags  uint8  // FlagPatched | FlagResync | FlagFailure | FlagEpoch
	Source topology.NodeID
	Edges  [][2]topology.NodeID

	// Err is set on client-side delivery when the server answered a
	// subscription with an ERROR frame instead of a snapshot.
	Err error
}

// Patched reports whether the pushed tree came from an incremental
// repair.
func (u *TreeUpdate) Patched() bool { return u.Flags&FlagPatched != 0 }

// Resync reports whether the update is a snapshot (subscribe ack or
// resync answer) rather than a spontaneous push.
func (u *TreeUpdate) Resync() bool { return u.Flags&FlagResync != 0 }

// FailureDriven reports whether the push was triggered by failure-driven
// invalidation.
func (u *TreeUpdate) FailureDriven() bool { return u.Flags&FlagFailure != 0 }

// EpochDriven reports whether the push is a pre-peeled tree announced
// ahead of a scheduled fabric reconfiguration.
func (u *TreeUpdate) EpochDriven() bool { return u.Flags&FlagEpoch != 0 }

// appendHeader writes the fixed header for a frame whose payload will be
// appended afterwards; patchLen fixes the length field up once the
// payload size is known.
func appendHeader(buf []byte, typ uint8) []byte {
	return append(buf, magic0, magic1, Version, typ, 0, 0, 0, 0)
}

func patchLen(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start+4:start+8], uint32(len(buf)-start-HeaderLen))
	return buf
}

// AppendGroupFrame encodes a SUBSCRIBE, UNSUBSCRIBE, or RESYNC frame.
func AppendGroupFrame(buf []byte, typ uint8, gid string) []byte {
	start := len(buf)
	buf = appendHeader(buf, typ)
	buf = binary.AppendUvarint(buf, uint64(len(gid)))
	buf = append(buf, gid...)
	return patchLen(buf, start)
}

// AppendPing encodes a PING (or, for the server, PONG) frame.
func AppendPing(buf []byte, typ uint8, nonce uint64) []byte {
	start := len(buf)
	buf = appendHeader(buf, typ)
	buf = binary.AppendUvarint(buf, nonce)
	return patchLen(buf, start)
}

// AppendError encodes an ERROR frame.
func AppendError(buf []byte, code uint64, gid, msg string) []byte {
	start := len(buf)
	buf = appendHeader(buf, TypeError)
	buf = binary.AppendUvarint(buf, code)
	buf = binary.AppendUvarint(buf, uint64(len(gid)))
	buf = append(buf, gid...)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	return patchLen(buf, start)
}

// AppendTreeFrame encodes a TREE push for t. Edges are emitted in the
// tree's member insertion order; the steady-state push path reuses one
// per-connection buffer, so this append-only encoder is 0 allocs/op once
// the buffer has warmed to frame size (CI-pinned by
// BenchmarkWireEncodeTree).
func AppendTreeFrame(buf []byte, gid string, gen, seq uint64, flags uint8, t *steiner.Tree) []byte {
	start := len(buf)
	buf = appendHeader(buf, TypeTree)
	buf = binary.AppendUvarint(buf, uint64(len(gid)))
	buf = append(buf, gid...)
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(t.Source))
	buf = binary.AppendUvarint(buf, uint64(t.Cost()))
	for _, m := range t.Members {
		if p := t.Parent[m]; p != topology.None {
			buf = binary.AppendUvarint(buf, uint64(p))
			buf = binary.AppendUvarint(buf, uint64(m))
		}
	}
	return patchLen(buf, start)
}

// AppendTreeFrameEdges is AppendTreeFrame for an explicit edge list — the
// protocol-only entry point golden tests pin, independent of any tree
// builder's member ordering.
func AppendTreeFrameEdges(buf []byte, gid string, gen, seq uint64, flags uint8,
	source topology.NodeID, edges [][2]topology.NodeID) []byte {
	start := len(buf)
	buf = appendHeader(buf, TypeTree)
	buf = binary.AppendUvarint(buf, uint64(len(gid)))
	buf = append(buf, gid...)
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(source))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]))
	}
	return patchLen(buf, start)
}

// Frame is one decoded frame header plus its raw payload. Payload aliases
// the Reader's internal buffer and is valid only until the next ReadFrame.
type Frame struct {
	Type    uint8
	Payload []byte
}

// Reader decodes frames from a stream, reusing one payload buffer.
type Reader struct {
	r       io.Reader
	hdr     [HeaderLen]byte
	payload []byte
}

// NewReader wraps r (callers hand in a bufio.Reader for coalesced reads).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads and validates the next frame. The returned payload is
// owned by the Reader and overwritten by the next call.
func (r *Reader) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return Frame{}, err
	}
	if r.hdr[0] != magic0 || r.hdr[1] != magic1 {
		return Frame{}, fmt.Errorf("%w: bad magic %#02x%02x", ErrBadFrame, r.hdr[0], r.hdr[1])
	}
	if r.hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, r.hdr[2], Version)
	}
	typ := r.hdr[3]
	if typ == 0 || typ > typeMax {
		return Frame{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, typ)
	}
	n := binary.BigEndian.Uint32(r.hdr[4:8])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: payload %d exceeds max %d", ErrBadFrame, n, MaxPayload)
	}
	if cap(r.payload) < int(n) {
		r.payload = make([]byte, n)
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return Frame{Type: typ, Payload: r.payload}, nil
}

// payloadReader is a bounds-checked cursor over one frame payload; every
// decode helper consumes through it, so no parse can over-read.
type payloadReader struct {
	b []byte
	i int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrBadFrame, p.i)
	}
	p.i += n
	return v, nil
}

func (p *payloadReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(p.b)-p.i) {
		return nil, fmt.Errorf("%w: %d bytes wanted, %d left", ErrBadFrame, n, len(p.b)-p.i)
	}
	out := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return out, nil
}

func (p *payloadReader) done() error {
	if p.i != len(p.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(p.b)-p.i)
	}
	return nil
}

func (p *payloadReader) groupID() (string, error) {
	raw, err := p.groupIDBytes()
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// groupIDBytes is the allocation-free variant: the returned slice aliases
// the payload and is only valid until the reader's next frame.
func (p *payloadReader) groupIDBytes() ([]byte, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxGroupID {
		return nil, fmt.Errorf("%w: group id length %d", ErrBadFrame, n)
	}
	return p.bytes(n)
}

// DecodeGroupFrame parses a SUBSCRIBE, UNSUBSCRIBE, or RESYNC payload.
func DecodeGroupFrame(payload []byte) (gid string, err error) {
	p := payloadReader{b: payload}
	if gid, err = p.groupID(); err != nil {
		return "", err
	}
	return gid, p.done()
}

// DecodePing parses a PING or PONG payload.
func DecodePing(payload []byte) (nonce uint64, err error) {
	p := payloadReader{b: payload}
	if nonce, err = p.uvarint(); err != nil {
		return 0, err
	}
	return nonce, p.done()
}

// DecodeError parses an ERROR payload.
func DecodeError(payload []byte) (code uint64, gid, msg string, err error) {
	p := payloadReader{b: payload}
	if code, err = p.uvarint(); err != nil {
		return 0, "", "", err
	}
	if gid, err = p.groupID(); err != nil {
		return 0, "", "", err
	}
	n, err := p.uvarint()
	if err != nil {
		return 0, "", "", err
	}
	if n > 4096 {
		return 0, "", "", fmt.Errorf("%w: error message length %d", ErrBadFrame, n)
	}
	raw, err := p.bytes(n)
	if err != nil {
		return 0, "", "", err
	}
	return code, gid, string(raw), p.done()
}

// maxNode bounds node IDs on the wire: far above any simulated fabric,
// far below anything that could make a decoded slice interesting to an
// attacker.
const maxNode = 1 << 24

// DecodeTree parses a TREE payload into u, reusing u.Edges' backing
// array. The edge count is validated against the payload size before any
// allocation, so a corrupt header cannot balloon memory.
func DecodeTree(payload []byte, u *TreeUpdate) error {
	p := payloadReader{b: payload}
	gid, err := p.groupIDBytes()
	if err != nil {
		return err
	}
	if u.Gen, err = p.uvarint(); err != nil {
		return err
	}
	if u.Seq, err = p.uvarint(); err != nil {
		return err
	}
	fl, err := p.bytes(1)
	if err != nil {
		return err
	}
	u.Flags = fl[0]
	src, err := p.uvarint()
	if err != nil {
		return err
	}
	if src >= maxNode {
		return fmt.Errorf("%w: source %d out of range", ErrBadFrame, src)
	}
	nEdges, err := p.uvarint()
	if err != nil {
		return err
	}
	// Each edge is at least two one-byte varints: an announced count the
	// remaining payload cannot hold is rejected before allocating.
	if nEdges > uint64(len(p.b)-p.i)/2 {
		return fmt.Errorf("%w: %d edges in %d payload bytes", ErrBadFrame, nEdges, len(p.b)-p.i)
	}
	// Steady state decodes the same group into the same TreeUpdate; the
	// comparison is allocation-free, so the string only materializes when
	// the group actually changed.
	if u.Group != string(gid) {
		u.Group = string(gid)
	}
	u.Source = topology.NodeID(src)
	u.Edges = u.Edges[:0]
	for e := uint64(0); e < nEdges; e++ {
		parent, err := p.uvarint()
		if err != nil {
			return err
		}
		child, err := p.uvarint()
		if err != nil {
			return err
		}
		if parent >= maxNode || child >= maxNode {
			return fmt.Errorf("%w: edge %d-%d out of range", ErrBadFrame, parent, child)
		}
		u.Edges = append(u.Edges, [2]topology.NodeID{topology.NodeID(parent), topology.NodeID(child)})
	}
	return p.done()
}

// DecodeAny dispatches a frame to its payload decoder, returning a
// uniform error for unknown types — the single entry point FuzzWireDecode
// drives.
func DecodeAny(f Frame, u *TreeUpdate) error {
	switch f.Type {
	case TypeSubscribe, TypeUnsubscribe, TypeResync:
		_, err := DecodeGroupFrame(f.Payload)
		return err
	case TypePing, TypePong:
		_, err := DecodePing(f.Payload)
		return err
	case TypeTree:
		return DecodeTree(f.Payload, u)
	case TypeError:
		_, _, _, err := DecodeError(f.Payload)
		return err
	default:
		return fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.Type)
	}
}
