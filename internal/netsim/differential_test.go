package netsim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"peel/internal/core"
	"peel/internal/sim"
	"peel/internal/topology"
)

// Differential pins against the closure-per-hop netsim this package
// replaced: every constant below was recorded by running this same file
// at that commit. The event representation may change; the (at, seq) of
// every event, the congestion counters and the bytes each channel carried
// may not.

// fingerprint folds the processed-event stream and the network's final
// counters into comparable values.
type fingerprint struct {
	events   uint64
	trace    string // FNV-1a of every processed event's (at, seq)
	ecn, pfc uint64
	bytes    string // FNV-1a of BytesSent per directed channel, link-ID order
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("events=%d trace=%s ecn=%d pfc=%d bytes=%s", fp.events, fp.trace, fp.ecn, fp.pfc, fp.bytes)
}

// runFingerprint arms the trace digest, lets load schedule its traffic,
// drains the engine and reads the counters back.
func runFingerprint(t *testing.T, g *topology.Graph, cfg Config, load func(n *Network)) fingerprint {
	t.Helper()
	eng := &sim.Engine{}
	n := New(g, eng, cfg)
	h := fnv.New64a()
	var buf [16]byte
	eng.SetTrace(func(at sim.Time, seq uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(at) >> (8 * i))
			buf[8+i] = byte(seq >> (8 * i))
		}
		h.Write(buf[:])
	})
	load(n)
	if err := eng.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	for _, f := range n.Flows() {
		if !f.Done() {
			t.Fatalf("flow incomplete: %s", f.DebugState())
		}
	}
	hb := fnv.New64a()
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		for _, dir := range [2][2]topology.NodeID{{l.A, l.B}, {l.B, l.A}} {
			fmt.Fprintf(hb, "%d>%d=%d;", dir[0], dir[1], n.Channel(dir[0], dir[1]).BytesSent)
		}
	}
	return fingerprint{
		events: eng.Processed(),
		trace:  fmt.Sprintf("%016x", h.Sum64()),
		ecn:    n.TotalECNMarks,
		pfc:    n.PFCPauses,
		bytes:  fmt.Sprintf("%016x", hb.Sum64()),
	}
}

// TestDifferentialIncast: a 5:1 incast through a tiny shared buffer (ECN
// marks, PFC pause/resume, CNPs) with two of the flows sharing one NIC
// (backpressure waiters).
func TestDifferentialIncast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.BufferBytes = 64 << 10
	cfg.ECNKmaxBytes = 48 << 10
	g := topology.LeafSpine(2, 4, 4)
	got := runFingerprint(t, g, cfg, func(n *Network) {
		hosts := g.Hosts()
		r := &rig{g: g, eng: n.Engine, net: n}
		for _, pair := range [][2]topology.NodeID{
			{hosts[0], hosts[3]}, {hosts[1], hosts[3]}, {hosts[4], hosts[3]},
			{hosts[8], hosts[3]}, {hosts[0], hosts[7]},
		} {
			f := r.unicast(t, pair[0], pair[1])
			f.Send(0, 1<<20)
			f.Send(1, 256<<10)
		}
	})
	const want = "events=15797 trace=f23d76fb19bd7a86 ecn=449 pfc=57 bytes=10d347240b064a73"
	if got.String() != want {
		t.Fatalf("incast fingerprint\n got %s\nwant %s", got, want)
	}
}

// TestDifferentialPeelBroadcast: one PEEL tree from a host to every other
// host of a FatTree(4), two chunks, with a cross-pod unicast competing for
// the tree's links.
func TestDifferentialPeelBroadcast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.ECNKminBytes = 4 << 10
	cfg.ECNKmaxBytes = 16 << 10
	cfg.ECNPmax = 0.5
	g := topology.FatTree(4)
	got := runFingerprint(t, g, cfg, func(n *Network) {
		hosts := g.Hosts()
		recv := hosts[1:]
		tree, err := core.BuildTree(g, hosts[0], recv)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := n.NewMulticastFlow(tree, recv, cfg.DCQCN)
		if err != nil {
			t.Fatal(err)
		}
		mf.Send(0, 512<<10)
		mf.Send(1, 512<<10)
		r := &rig{g: g, eng: n.Engine, net: n}
		r.unicast(t, hosts[5], hosts[len(hosts)-1]).Send(0, 1<<20)
		r.unicast(t, hosts[9], hosts[len(hosts)-1]).Send(0, 1<<20)
	})
	const want = "events=27148 trace=e95be60050fe353e ecn=1206 pfc=0 bytes=2842c561bfc00bd9"
	if got.String() != want {
		t.Fatalf("broadcast fingerprint\n got %s\nwant %s", got, want)
	}
}

// TestBackpressureWakeOrderFIFO: three line-rate flows share one host
// uplink, so two of them are always parked on the NIC. The drained uplink
// must hand its slot to the longest-waiting flow — strict rotation once
// the queue has filled — and the whole injection order must equal the one
// recorded before waiters became a head-indexed queue of flows.
func TestBackpressureWakeOrderFIFO(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	hosts := r.g.Hosts()
	var flows []*Flow
	for i := 1; i <= 3; i++ {
		f := r.unicast(t, hosts[0], hosts[i*4])
		f.Send(0, 1<<20)
		flows = append(flows, f)
	}
	var order strings.Builder
	last := make([]int64, len(flows))
	for r.eng.Step() {
		for i, f := range flows {
			if f.BytesInjected != last[i] {
				last[i] = f.BytesInjected
				order.WriteByte(byte('0' + i))
			}
		}
	}
	seq := order.String()
	if want := 3 * (1 << 20) / int(cfg.FrameBytes); len(seq) != want {
		t.Fatalf("%d injections, want %d", len(seq), want)
	}
	// Skip the fill phase (the queue holds HostQueueFrames before anyone
	// waits) and the tail (flows finish and drop out of the rotation).
	for i := 32; i < len(seq)-32; i++ {
		if seq[i] != seq[i-3] || seq[i] == seq[i-1] || seq[i] == seq[i-2] {
			t.Fatalf("injection %d breaks the rotation: …%s…", i, seq[i-6:i+1])
		}
	}
	h := fnv.New64a()
	h.Write([]byte(seq))
	const want = "0120120120101201/b5d70035fd778d0d"
	if got := fmt.Sprintf("%s/%016x", seq[:16], h.Sum64()); got != want {
		t.Fatalf("injection order %s, want %s", got, want)
	}
}
