package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"peel/internal/topology"
)

// FuzzWireDecode holds the codec to its safety contract: arbitrary bytes
// never panic the reader or the payload decoders, never over-read, and
// never make a decode allocate proportionally to an attacker-controlled
// length field. Seeds cover every frame type via the golden session plus
// handcrafted corruptions.
func FuzzWireDecode(f *testing.F) {
	f.Add(goldenSession())
	f.Add(AppendGroupFrame(nil, TypeSubscribe, "g0000"))
	f.Add(AppendGroupFrame(nil, TypeResync, "g"))
	// A version-1 RESYNC, whose payload still carried a trailing gen.
	v1 := binary.AppendUvarint(AppendGroupFrame(nil, TypeResync, "g"), 1<<60)
	v1[2] = 1
	f.Add(patchLen(v1, 0))
	f.Add(AppendPing(nil, TypePing, 0))
	f.Add(AppendError(nil, ErrCodeInternal, "g", "boom"))
	f.Add(AppendTreeFrameEdges(nil, "g", 1, 1, FlagFailure, 3,
		[][2]topology.NodeID{{1, 2}, {2, 4}}))
	// Corrupt headers: bad magic, huge length, unknown type.
	f.Add([]byte{'P', 'W', Version, TypeTree, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'P', 'W', Version, 200, 0, 0, 0, 1, 0})
	f.Add([]byte{'X', 'Y', 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var u TreeUpdate
		for {
			fr, err := r.ReadFrame()
			if err != nil {
				// Every failure must be a typed protocol error or plain
				// stream exhaustion — nothing anonymous escapes.
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("ReadFrame returned an untyped error: %v", err)
				}
				return
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("reader produced a payload of %d bytes (max %d)", len(fr.Payload), MaxPayload)
			}
			if err := DecodeAny(fr, &u); err == nil {
				// A successful tree decode must respect the wire bounds the
				// encoder enforces.
				if fr.Type == TypeTree {
					if u.Source >= maxNode || len(u.Group) > maxGroupID {
						t.Fatalf("decoded tree violates wire bounds: source %d gid %d bytes",
							u.Source, len(u.Group))
					}
					for _, e := range u.Edges {
						if e[0] >= maxNode || e[1] >= maxNode {
							t.Fatalf("decoded edge %v out of range", e)
						}
					}
				}
			} else if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeAny returned an untyped error: %v", err)
			}
		}
	})
}

// TestFuzzSeedsDecode sanity-checks that the well-formed fuzz seeds
// actually decode, so the fuzzer starts from valid protocol ground.
func TestFuzzSeedsDecode(t *testing.T) {
	var u TreeUpdate
	for _, fr := range readAll(t, goldenSession()) {
		if err := DecodeAny(fr, &u); err != nil {
			t.Fatalf("golden frame type %d failed to decode: %v", fr.Type, err)
		}
	}
}
