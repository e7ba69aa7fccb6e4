package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peel/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// readAll decodes every frame in buf.
func readAll(t *testing.T, buf []byte) []Frame {
	t.Helper()
	r := NewReader(bytes.NewReader(buf))
	var out []Frame
	for {
		f, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		// The reader reuses its payload buffer; copy for the assertion.
		out = append(out, Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)})
	}
}

func TestGroupFrameRoundTrip(t *testing.T) {
	for _, typ := range []uint8{TypeSubscribe, TypeUnsubscribe, TypeResync} {
		buf := AppendGroupFrame(nil, typ, "g0042")
		frames := readAll(t, buf)
		if len(frames) != 1 || frames[0].Type != typ {
			t.Fatalf("type %d: got %d frames, first type %d", typ, len(frames), frames[0].Type)
		}
		gid, err := DecodeGroupFrame(frames[0].Payload)
		if err != nil {
			t.Fatalf("type %d: decode: %v", typ, err)
		}
		if gid != "g0042" {
			t.Fatalf("type %d: gid %q", typ, gid)
		}
		// Every group frame is the group ID alone: a trailing varint, as
		// the version-1 RESYNC carried, is rejected.
		if _, err := DecodeGroupFrame(append(frames[0].Payload, 17)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("type %d: trailing gen accepted (err %v)", typ, err)
		}
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	buf := AppendPing(nil, TypePing, 0xdeadbeef)
	buf = AppendPing(buf, TypePong, 7)
	frames := readAll(t, buf)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	n, err := DecodePing(frames[0].Payload)
	if err != nil || n != 0xdeadbeef {
		t.Fatalf("ping: %v nonce %x", err, n)
	}
	n, err = DecodePing(frames[1].Payload)
	if err != nil || n != 7 {
		t.Fatalf("pong: %v nonce %d", err, n)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	buf := AppendError(nil, ErrCodeNoGroup, "gone", "no such group")
	frames := readAll(t, buf)
	code, gid, msg, err := DecodeError(frames[0].Payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if code != ErrCodeNoGroup || gid != "gone" || msg != "no such group" {
		t.Fatalf("got (%d, %q, %q)", code, gid, msg)
	}
}

func TestTreeFrameRoundTrip(t *testing.T) {
	edges := [][2]topology.NodeID{{100, 3}, {100, 7}, {101, 100}, {3, 1}}
	buf := AppendTreeFrameEdges(nil, "g0001", 42, 9, FlagPatched|FlagFailure, 101, edges)
	frames := readAll(t, buf)
	var u TreeUpdate
	if err := DecodeTree(frames[0].Payload, &u); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if u.Group != "g0001" || u.Gen != 42 || u.Seq != 9 || u.Source != 101 {
		t.Fatalf("header fields: %+v", u)
	}
	if !u.Patched() || !u.FailureDriven() || u.Resync() {
		t.Fatalf("flags: %+v", u)
	}
	if len(u.Edges) != len(edges) {
		t.Fatalf("edges: %d, want %d", len(u.Edges), len(edges))
	}
	for i, e := range edges {
		if u.Edges[i] != e {
			t.Fatalf("edge %d: %v, want %v", i, u.Edges[i], e)
		}
	}
	// Decoding into the same TreeUpdate must reuse the edge slice.
	before := &u.Edges[0]
	if err := DecodeTree(frames[0].Payload, &u); err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if &u.Edges[0] != before {
		t.Fatalf("re-decode reallocated the edge slice")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	good := AppendTreeFrameEdges(nil, "g", 1, 1, 0, 5, [][2]topology.NodeID{{4, 5}})
	cases := map[string][]byte{
		"bad magic":       append([]byte{'X', 'W'}, good[2:]...),
		"bad version":     append([]byte{'P', 'W', 99}, good[3:]...),
		"type zero":       {'P', 'W', Version, 0, 0, 0, 0, 0},
		"type high":       {'P', 'W', Version, typeMax + 1, 0, 0, 0, 0},
		"oversized len":   {'P', 'W', Version, TypePing, 0xff, 0xff, 0xff, 0xff},
		"truncated":       good[:len(good)-2],
		"trailing header": good[:HeaderLen-3],
	}
	for name, raw := range cases {
		r := NewReader(bytes.NewReader(raw))
		if _, err := r.ReadFrame(); err == nil {
			t.Errorf("%s: ReadFrame accepted corrupt input", name)
		}
	}

	// Payload-level corruption: announced edge count beyond the payload.
	payload := append([]byte(nil), good[HeaderLen:]...)
	// The edge count varint for 1 edge is the byte before the final two
	// edge varints; rewrite it to a huge count.
	payload[len(payload)-3] = 0x7f
	var u TreeUpdate
	if err := DecodeTree(payload, &u); err == nil {
		t.Errorf("DecodeTree accepted an edge count beyond the payload")
	}

	if _, err := DecodeGroupFrame(nil); err == nil {
		t.Errorf("DecodeGroupFrame accepted an empty payload")
	}
	long := AppendGroupFrame(nil, TypeSubscribe, strings.Repeat("x", maxGroupID+1))
	if _, err := DecodeGroupFrame(long[HeaderLen:]); err == nil {
		t.Errorf("DecodeGroupFrame accepted an oversized group id")
	}

	// A version-1 peer (whose RESYNC carried a gen) is refused at the
	// header, before any payload is parsed.
	v1 := AppendGroupFrame(nil, TypeResync, "g")
	v1[2] = 1
	if _, err := NewReader(bytes.NewReader(v1)).ReadFrame(); !errors.Is(err, ErrVersion) {
		t.Errorf("version-1 header: err %v, want ErrVersion", err)
	}
}

// goldenSession builds the byte-exact subscribe → snapshot → push →
// resync → error session pinned in testdata/wire_session.golden. Golden
// frames use AppendTreeFrameEdges so the bytes depend only on the
// protocol, never on a tree builder's member ordering.
func goldenSession() []byte {
	var buf []byte
	// Client side: subscribe, later detect a gap and resync, ping.
	buf = AppendGroupFrame(buf, TypeSubscribe, "g0007")
	buf = AppendGroupFrame(buf, TypeResync, "g0007")
	buf = AppendPing(buf, TypePing, 99)
	// Server side: subscribe snapshot of publication 1, failure push of
	// publication 2, resync snapshot of publication 5 after a shed gap,
	// pong, and a terminal error for an unknown group.
	snap := [][2]topology.NodeID{{40, 2}, {40, 6}, {72, 40}}
	buf = AppendTreeFrameEdges(buf, "g0007", 2, 1, FlagResync, 72, snap)
	patched := [][2]topology.NodeID{{41, 2}, {41, 6}, {72, 41}}
	buf = AppendTreeFrameEdges(buf, "g0007", 3, 2, FlagPatched|FlagFailure, 72, patched)
	buf = AppendTreeFrameEdges(buf, "g0007", 5, 5, FlagResync, 72, snap)
	buf = AppendPing(buf, TypePong, 99)
	buf = AppendError(buf, ErrCodeNoGroup, "gX", "no such group: gX")
	return buf
}

// TestGoldenWireSession pins the wire format: any byte change to the
// encoding is a protocol break and must fail until the golden is
// consciously regenerated with -update-golden.
func TestGoldenWireSession(t *testing.T) {
	got := goldenSession()
	var dump strings.Builder
	dump.WriteString("# Framed binary subscription protocol, version 2.\n")
	dump.WriteString("# One line per frame: hex bytes. Regenerate: go test ./internal/service/wire -run TestGoldenWireSession -update-golden\n")
	for _, f := range readAll(t, got) {
		frame := appendHeader(nil, f.Type)
		frame = append(frame, f.Payload...)
		frame = patchLen(frame, 0)
		fmt.Fprintf(&dump, "%s\n", hex.EncodeToString(frame))
	}
	path := filepath.Join("testdata", "wire_session.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if dump.String() != string(want) {
		t.Fatalf("wire format drifted from golden session.\ngot:\n%s\nwant:\n%s", dump.String(), want)
	}

	// The golden bytes must also decode back to the session's semantics.
	frames := readAll(t, got)
	if len(frames) != 8 {
		t.Fatalf("session has %d frames, want 8", len(frames))
	}
	var u TreeUpdate
	if err := DecodeTree(frames[4].Payload, &u); err != nil {
		t.Fatalf("decoding the failure push: %v", err)
	}
	if u.Gen != 3 || u.Seq != 2 || !u.Patched() || !u.FailureDriven() {
		t.Fatalf("failure push decoded to %+v", u)
	}
}
