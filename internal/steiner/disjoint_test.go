package steiner

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"peel/internal/invariant"
	"peel/internal/topology"
)

// fingerprintTrees serializes a tree set into comparable bytes: member
// order plus parents, per tree. Byte-identical fingerprints mean
// byte-identical tree sets.
func fingerprintTrees(trees []*Tree) string {
	out := make([]byte, 0, 64)
	for _, t := range trees {
		out = append(out, '|')
		for _, m := range t.Members {
			p := t.Parent[m]
			out = append(out, byte(m), byte(m>>8), byte(p), byte(p>>8))
		}
	}
	return string(out)
}

// switchLinkSets returns each tree's switch-switch link set on g.
func switchLinkSets(g *topology.Graph, trees []*Tree) []map[topology.LinkID]bool {
	sets := make([]map[topology.LinkID]bool, len(trees))
	for i, t := range trees {
		sets[i] = map[topology.LinkID]bool{}
		for _, m := range t.Members {
			p := t.Parent[m]
			if p == topology.None {
				continue
			}
			if g.Node(p).Kind.IsSwitch() && g.Node(m).Kind.IsSwitch() {
				sets[i][g.LinkBetween(p, m)] = true
			}
		}
	}
	return sets
}

// checkDisjointProperty is the oracle behind the generative test: given
// any graph and draw, the DisjointTrees contract must hold —
//
//  1. every tree is a valid multicast tree over g spanning all dests,
//  2. trees are pairwise disjoint over switch-switch links,
//  3. every tree's cost sits inside the Theorem 2.5 budget computed on
//     an independently reconstructed residual graph (the graph the tree
//     was actually peeled on),
//  4. stats agree with the returned set.
func checkDisjointProperty(g *topology.Graph, src topology.NodeID, dests []topology.NodeID, k int) error {
	trees, stats, err := DisjointTrees(g, src, dests, k)
	if err != nil {
		return fmt.Errorf("DisjointTrees: %w", err)
	}
	if stats.Built != len(trees) || stats.Requested != k {
		return fmt.Errorf("stats mismatch: built=%d len=%d requested=%d k=%d",
			stats.Built, len(trees), stats.Requested, k)
	}
	if len(trees) < 1 || len(trees) > k {
		return fmt.Errorf("got %d trees for k=%d", len(trees), k)
	}
	if len(trees) < k && !stats.Exhausted {
		return fmt.Errorf("built %d < k=%d without Exhausted", len(trees), k)
	}
	for i, t := range trees {
		if err := t.Validate(g, dests); err != nil {
			return fmt.Errorf("tree %d invalid: %w", i, err)
		}
	}
	sets := switchLinkSets(g, trees)
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			for l := range sets[i] {
				if sets[j][l] {
					return fmt.Errorf("trees %d and %d share switch link %d", i, j, l)
				}
			}
		}
	}
	// Independent residual reconstruction for the per-tree budget: tree i
	// was peeled on g minus the switch links trees 0..i-1 claimed.
	residual := g.Clone()
	for i, t := range trees {
		lb, ub, err := PeelCostBudget(residual, src, dests)
		if err != nil {
			return fmt.Errorf("tree %d: residual budget: %w", i, err)
		}
		if c := t.Cost(); lb > 0 && (c < lb || c > ub) {
			return fmt.Errorf("tree %d cost %d outside residual budget [%d, %d]", i, c, lb, ub)
		}
		claimTreeLinks(residual, t)
	}
	return nil
}

// disjointDraw generates one seeded random instance: a fat-tree or
// leaf–spine (optionally degraded), a random group, and a random k.
func disjointDraw(seed int64) (g *topology.Graph, src topology.NodeID, dests []topology.NodeID, k int) {
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(2) == 0 {
		g = topology.FatTree(4)
	} else {
		g = topology.LeafSpine(2+rng.Intn(4), 3+rng.Intn(4), 1+rng.Intn(2))
	}
	if rng.Intn(3) == 0 {
		g.FailRandomFraction(0.1*rng.Float64(), topology.SwitchLinks, rng)
	}
	hosts := g.Hosts()
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	n := 2 + rng.Intn(8)
	if n > len(hosts) {
		n = len(hosts)
	}
	return g, hosts[0], hosts[1:n], 1 + rng.Intn(4)
}

// TestDisjointTreesProperty is the generative property test: many seeded
// draws over random fat-trees and leaf–spines; any failure is shrunk by
// halving the destination set before reporting, scenario-harness style.
func TestDisjointTreesProperty(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		g, src, dests, k := disjointDraw(seed)
		if _, _, err := LayerPeeling(g, src, dests); err != nil {
			continue // degraded draw disconnected the group; nothing to test
		}
		if err := checkDisjointProperty(g, src, dests, k); err != nil {
			t.Fatalf("seed %d (shrunk to %d dests): %v", seed, len(shrinkDests(g, src, dests, k)), err)
		}
	}
}

// shrinkDests halves the failing destination set while the property
// still fails, returning a minimal reproduction.
func shrinkDests(g *topology.Graph, src topology.NodeID, dests []topology.NodeID, k int) []topology.NodeID {
	cur := dests
	for len(cur) > 1 {
		shrunk := false
		for _, half := range [][]topology.NodeID{cur[:len(cur)/2], cur[len(cur)/2:]} {
			if len(half) == 0 {
				continue
			}
			if _, _, err := LayerPeeling(g, src, half); err != nil {
				continue
			}
			if checkDisjointProperty(g, src, half, k) != nil {
				cur, shrunk = half, true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return cur
}

// TestDisjointTreesDeterministic demands byte-identical tree sets from
// serial and concurrent runs: the builder must not depend on worker
// count or scheduling (the experiments' forEachIndex contract).
func TestDisjointTreesDeterministic(t *testing.T) {
	const n = 32
	serial := make([]string, n)
	for seed := 0; seed < n; seed++ {
		g, src, dests, k := disjointDraw(int64(seed))
		if _, _, err := LayerPeeling(g, src, dests); err != nil {
			serial[seed] = "unreachable"
			continue
		}
		trees, _, err := DisjointTrees(g, src, dests, k)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial[seed] = fingerprintTrees(trees)
	}
	for _, workers := range []int{1, 4, 8} {
		par := make([]string, n)
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := range jobs {
					g, src, dests, k := disjointDraw(int64(seed))
					if _, _, err := LayerPeeling(g, src, dests); err != nil {
						par[seed] = "unreachable"
						continue
					}
					trees, _, err := DisjointTrees(g, src, dests, k)
					if err == nil {
						par[seed] = fingerprintTrees(trees)
					}
				}
			}()
		}
		for seed := 0; seed < n; seed++ {
			jobs <- seed
		}
		close(jobs)
		wg.Wait()
		for seed := 0; seed < n; seed++ {
			if par[seed] != serial[seed] {
				t.Fatalf("seed %d diverged at %d workers", seed, workers)
			}
		}
	}
}

// TestDisjointTreesFatTreeStripes pins the healthy-fabric capacity: an
// 8-ary fat-tree has enough core diversity for 4 disjoint trees over a
// multi-pod group.
func TestDisjointTreesFatTree(t *testing.T) {
	g := topology.FatTree(8)
	hosts := g.Hosts()
	var dests []topology.NodeID
	for i := 7; i < len(hosts); i += 8 {
		dests = append(dests, hosts[i])
		if len(dests) == 32 {
			break
		}
	}
	trees, stats, err := DisjointTrees(g, hosts[0], dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 4 || stats.Exhausted {
		t.Fatalf("8-ary fat-tree should carry 4 disjoint trees, got %d (exhausted=%v)", stats.Built, stats.Exhausted)
	}
	if err := checkDisjointProperty(g, hosts[0], dests, 4); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trees {
		if len(tr.Links(g)) != tr.Cost() {
			t.Fatalf("tree %d: links/cost mismatch", i)
		}
	}
}

// TestDisjointTreesExhausted pins the fewer-than-k contract: a 2-spine
// leaf–spine has exactly two disjoint leaf-to-leaf paths, so k=4 must
// come back with 2 trees and Exhausted set — not an error.
func TestDisjointTreesExhausted(t *testing.T) {
	g := topology.LeafSpine(2, 4, 2)
	hosts := g.Hosts()
	src := hosts[0]
	dests := []topology.NodeID{hosts[3], hosts[5], hosts[7]} // spread over other leaves
	trees, stats, err := DisjointTrees(g, src, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 2 || len(trees) != 2 {
		t.Fatalf("2-spine fabric: want 2 disjoint trees, got %d", stats.Built)
	}
	if !stats.Exhausted {
		t.Fatal("Exhausted not reported for built < requested")
	}
	if err := checkDisjointProperty(g, src, dests, 4); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointTreesRejectsZeroK(t *testing.T) {
	g := topology.LeafSpine(2, 2, 2)
	hosts := g.Hosts()
	if _, _, err := DisjointTrees(g, hosts[0], hosts[1:3], 0); err == nil {
		t.Fatal("k=0 must error")
	}
}

// TestMutationDisjointFires proves the trees-link-disjoint checker
// catches overlap: two hand-built trees sharing a leaf–spine link must
// violate, and the genuine DisjointTrees output must not.
func TestMutationDisjointFires(t *testing.T) {
	g, src, dst, leaf, spine, leaf2 := mutationFabric(t)
	_ = leaf2
	build := func() *Tree {
		tr := newTree(src, g.NumNodes())
		tr.add(leaf, src)
		tr.add(spine, leaf) // both trees claim the same leaf-spine link
		tr.add(dst, leaf)
		return tr
	}
	s := invariant.NewSuite()
	ReportDisjointChecks(s, g, []*Tree{build(), build()})
	if s.Violations(TreesLinkDisjoint) == 0 {
		t.Fatal("trees-link-disjoint did not fire on overlapping trees")
	}

	s2 := invariant.NewSuite()
	trees, _, err := DisjointTrees(g, src, []topology.NodeID{dst}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ReportDisjointChecks(s2, g, trees)
	if s2.Violations(TreesLinkDisjoint) != 0 {
		t.Fatalf("false positive on genuine disjoint set: %s", s2.FirstFailure(TreesLinkDisjoint))
	}
	if s2.Checks(TreesLinkDisjoint) == 0 {
		t.Fatal("disjoint checker never ran on the genuine set")
	}
}

// BenchmarkDisjointTrees measures peeling 4 link-disjoint trees for a
// 32-receiver group on the 8-ary fat-tree — the striped schemes' setup
// cost (CI's striped-smoke job runs it with -benchmem).
func BenchmarkDisjointTrees(b *testing.B) {
	g := topology.FatTree(8)
	hosts := g.Hosts()
	var dests []topology.NodeID
	for i := 7; i < len(hosts); i += 8 {
		dests = append(dests, hosts[i])
		if len(dests) == 32 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees, _, err := DisjointTrees(g, hosts[0], dests, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(trees) != 4 {
			b.Fatalf("got %d trees", len(trees))
		}
	}
}
