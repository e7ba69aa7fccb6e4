package peel

// The Fig. 5 sweep with and without the invariant suite armed (their
// ratio is the checking overhead), plus micro-benchmarks for the
// algorithmic kernels (tree construction, prefix covers, header codec,
// exact solver). End-to-end and per-layer performance is measured by
// `go run ./bench` (bench/README.md).

import (
	"math/rand"
	"testing"

	"peel/internal/experiments"
	"peel/internal/invariant"
	"peel/internal/prefix"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// benchFig5 regenerates Figure 5 (mean/p99 CCT vs message size for all
// six schemes at 30% load) at reduced fidelity with suite armed. A nil
// suite disarms the one the package TestMain arms for tests, so the
// unchecked benchmark measures the uninstrumented hot path.
func benchFig5(b *testing.B, suite *invariant.Suite) {
	defer invariant.Enable(suite)()
	o := experiments.Quick()
	o.Samples = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.X) == 0 {
			b.Fatal("empty result")
		}
	}
	if suite != nil && suite.TotalViolations() > 0 {
		b.Fatal(suite.Report())
	}
}

// BenchmarkFig5MessageSizeSweep is the Fig. 5 sweep without invariant
// checks.
func BenchmarkFig5MessageSizeSweep(b *testing.B) { benchFig5(b, nil) }

// BenchmarkFig5MessageSizeSweepChecked is BenchmarkFig5MessageSizeSweep
// with the full invariant suite armed — comparing the two quantifies the
// checking overhead (the acceptance budget is <=10%).
func BenchmarkFig5MessageSizeSweepChecked(b *testing.B) { benchFig5(b, invariant.NewSuite()) }

// ---- algorithmic kernels ----

// BenchmarkLayerPeelingTree measures the greedy tree construction on the
// Fig. 7 fabric (16×48 leaf–spine, 10% failures, 64 destinations).
func BenchmarkLayerPeelingTree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := topology.LeafSpine(16, 48, 2)
	g.FailRandomFraction(0.10, topology.TierLinks(topology.Spine, topology.Leaf), rng)
	hosts := g.Hosts()
	src, dests := hosts[0], hosts[1:65]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := steiner.LayerPeeling(g, src, dests); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymmetricOptimalTree measures the Lemma 2.1 construction on an
// 8-ary fat-tree with 64 destinations.
func BenchmarkSymmetricOptimalTree(b *testing.B) {
	g := topology.FatTree(8)
	hosts := g.Hosts()
	src, dests := hosts[0], hosts[1:65]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steiner.SymmetricOptimal(g, src, dests); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSteiner measures the Dreyfus–Wagner yardstick at its
// working size (9 terminals on a 196-node fabric).
func BenchmarkExactSteiner(b *testing.B) {
	g := topology.LeafSpine(8, 12, 2)
	hosts := g.Hosts()
	src, dests := hosts[0], hosts[1:9]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steiner.ExactSmall(g, src, dests); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanGroup measures full PEEL planning (prefix covers + packet
// trees) for a 64-host group on a 64-ary fat-tree's identifier spaces.
func BenchmarkPlanGroup(b *testing.B) {
	g := topology.FatTree(8)
	planner, err := NewPlanner(g)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	src, members := hosts[0], hosts[1:65]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.PlanGroup(src, members); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactCover measures the trie cover selection for a fragmented
// 32-ToR pod.
func BenchmarkExactCover(b *testing.B) {
	s := prefix.Space{M: 5}
	ids := []uint32{0, 1, 2, 3, 5, 8, 9, 10, 11, 17, 21, 22, 23, 28, 30, 31}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExactCover(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderCodec measures ⟨prefix,len⟩ encode+decode round trips.
func BenchmarkHeaderCodec(b *testing.B) {
	c := prefix.Codec{M: 6} // k=128
	h := prefix.Header{ToR: prefix.Prefix{Value: 0b101, Len: 3}, Host: prefix.Prefix{Value: 0b01, Len: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := c.Encode(h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFatTreeConstruction measures building the 64-ary, 65,536-host
// fabric the paper's headline quotes.
func BenchmarkFatTreeConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topology.FatTree(64)
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}
