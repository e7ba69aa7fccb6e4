package service

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"peel/internal/invariant"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// benchService builds a warmed service with one cached group tree.
func benchService(b *testing.B) *Service {
	b.Helper()
	g := topology.FatTree(8)
	s := New(g, Options{})
	b.Cleanup(s.Close)
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "bench", hosts[:16]); err != nil {
		b.Fatal(err)
	}
	if _, err := s.GetTree(context.Background(), "bench"); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkGetTreeHit is the CI-pinned hot path: a cache-hit GetTree must
// stay allocation-free. Invariant checking is disarmed (invtest.Main arms
// it package-wide) because serve-time revalidation is deliberately not
// free; telemetry stays off here to measure the bare path.
func BenchmarkGetTreeHit(b *testing.B) {
	defer invariant.Enable(nil)()
	s := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetTree(context.Background(), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetTreeHitTelemetry proves the telemetry fast path keeps the
// hit allocation-free too: cached hooks, atomic counter increments, and
// lock-free histogram observes.
func BenchmarkGetTreeHitTelemetry(b *testing.B) {
	defer invariant.Enable(nil)()
	defer telemetry.Enable(telemetry.NewSink(0))()
	s := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetTree(context.Background(), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlapChurnRecompute is the loadgen flap-churn scenario: a
// pod-spanning group serves GetTree mostly from cache, and every
// hitsPerFlap-th get follows a link flap that invalidated the entry and
// forces a recompute. The p99-ns metric lands inside the recompute tail
// (flaps are ~3% of gets), so it reads the cost of a failure-driven
// patch. Chain-cap re-peels (every maxRepairChain-th patch) sit above the
// 99th percentile by construction, exactly as in production churn. The
// patch-vs-full-peel A/B itself is the BenchmarkRepair* pair in
// internal/steiner.
func BenchmarkFlapChurnRecompute(b *testing.B) {
	defer invariant.Enable(nil)()
	const hitsPerFlap = 32
	g := topology.FatTree(8)
	s := New(g, Options{})
	b.Cleanup(s.Close)
	// Every 8th host: two receivers per pod, so the tree crosses the core
	// tier.
	hosts := g.Hosts()
	members := make([]topology.NodeID, 0, 16)
	for i := 0; i < len(hosts) && len(members) < 16; i += 8 {
		members = append(members, hosts[i])
	}
	if _, err := s.CreateGroup(context.Background(), "bench", members); err != nil {
		b.Fatal(err)
	}
	ti, err := s.GetTree(context.Background(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%hitsPerFlap == hitsPerFlap-1 {
			// Receivers past the source's pod: the flap orphans a small
			// leaf subtree, never the root side.
			recv := members[2+i/hitsPerFlap%(len(members)-2)]
			link := receiverUplink(b, g, ti.Tree, recv)
			s.FailLink(link)
			start := time.Now()
			ti, err = s.GetTree(context.Background(), "bench")
			lat = append(lat, time.Since(start))
			s.RestoreLink(link)
		} else {
			start := time.Now()
			ti, err = s.GetTree(context.Background(), "bench")
			lat = append(lat, time.Since(start))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
}

// BenchmarkGetTreeHitParallel exercises shard and atomic contention: many
// goroutines hammering one hot cached key.
func BenchmarkGetTreeHitParallel(b *testing.B) {
	defer invariant.Enable(nil)()
	s := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.GetTree(context.Background(), "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreeForAtCap is the at-cap miss: one shard filled to its
// 4 096-entry cap, then never-repeated 8-member sets on a k=8 fat tree,
// so every op canonicalises, peels, evicts one idle entry and indexes
// the new tree's links. Below cap the same op skips only the eviction.
func BenchmarkTreeForAtCap(b *testing.B) {
	defer invariant.Enable(nil)()
	const cacheCap, members = 4096, 8
	g := topology.FatTree(8)
	s := New(g, Options{Shards: 1, CacheCap: cacheCap})
	b.Cleanup(s.Close)
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(1))
	draw := func() []topology.NodeID {
		set := make([]topology.NodeID, members)
		for i, p := range rng.Perm(len(hosts))[:members] {
			set[i] = hosts[p]
		}
		return set
	}
	ctx := context.Background()
	for s.Stats().CacheEntries < cacheCap {
		if _, err := s.TreeFor(ctx, draw()); err != nil {
			b.Fatal(err)
		}
	}
	sets := make([][]topology.NodeID, b.N)
	for i := range sets {
		sets[i] = draw()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TreeFor(ctx, sets[i]); err != nil {
			b.Fatal(err)
		}
	}
}
