package netsim

import (
	"testing"

	"peel/internal/core"
	"peel/internal/routing"
	"peel/internal/sim"
	"peel/internal/topology"
)

// eventsPerHop is how many events carry one frame over one link: the end
// of serialization, the arrival after propagation, and the forwarding
// decision at the switch (or, at the source, the paced injection).
const eventsPerHop = 3

// steadyFlow builds a FatTree(4) network carrying one flow — a cross-pod
// unicast, or a PEEL tree from one host to all others — with a single
// chunk long enough for the caller to run eventsPerHop×hops more events,
// and runs it past its warm-up: queues, the frame pool, the event slab
// and the receivers' bitsets have reached their working size, so what
// follows is the steady-state per-hop path.
func steadyFlow(tb testing.TB, multicast bool, hops int) *sim.Engine {
	tb.Helper()
	g := topology.FatTree(4)
	cfg := DefaultConfig()
	eng := &sim.Engine{}
	n := New(g, eng, cfg)
	hosts := g.Hosts()
	var f *Flow
	var err error
	var hopsPerFrame int
	if multicast {
		tree, terr := core.BuildTree(g, hosts[0], hosts[1:])
		if terr != nil {
			tb.Fatal(terr)
		}
		hopsPerFrame = tree.Cost()
		f, err = n.NewMulticastFlow(tree, hosts[1:], cfg.DCQCN)
	} else {
		path := routing.ECMPPath(g, hosts[0], hosts[len(hosts)-1], 1)
		hopsPerFrame = len(path) - 1
		f, err = n.NewUnicastFlow(path, cfg.DCQCN)
	}
	if err != nil {
		tb.Fatal(err)
	}
	// A frame costs at least two events per link it crosses, so this many
	// frames outlast eventsPerHop×hops events plus the warm-up.
	const warmup = 4096
	frames := 2*hops/hopsPerFrame + warmup
	f.Send(0, int64(frames)*cfg.FrameBytes)
	for i := 0; i < warmup; i++ {
		if !eng.Step() {
			tb.Fatal("flow drained during warm-up")
		}
	}
	return eng
}

func benchmarkHops(b *testing.B, multicast bool) {
	b.ReportAllocs()
	eng := steadyFlow(b, multicast, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < eventsPerHop; e++ {
			if !eng.Step() {
				b.Fatal("flow drained before the benchmark finished")
			}
		}
	}
}

// BenchmarkUnicastHop is one frame crossing one link of a six-link path.
// CI greps its line for " 0 allocs/op".
func BenchmarkUnicastHop(b *testing.B) { benchmarkHops(b, false) }

// BenchmarkMulticastCopy is one replicated copy crossing one link of a
// 15-receiver PEEL tree. CI greps its line for " 0 allocs/op".
func BenchmarkMulticastCopy(b *testing.B) { benchmarkHops(b, true) }

// TestSteadyStateHopZeroAlloc pins the per-hop path at zero allocations
// once warm, for a unicast hop and for a multicast copy.
func TestSteadyStateHopZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		multicast bool
	}{{"unicast hop", false}, {"multicast copy", true}} {
		const runs, hopsPerRun = 200, 16
		eng := steadyFlow(t, tc.multicast, (runs+1)*hopsPerRun)
		avg := testing.AllocsPerRun(runs, func() {
			for i := 0; i < hopsPerRun*eventsPerHop; i++ {
				if !eng.Step() {
					t.Fatal("flow drained mid-measurement")
				}
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per %d hops, want 0", tc.name, avg, hopsPerRun)
		}
	}
}
