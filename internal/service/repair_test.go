package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"peel/internal/steiner"
	"peel/internal/topology"
)

// receiverUplink returns the tree link feeding one receiver's edge
// switch. Failing it orphans a small subtree — within the repair policy's
// orphan-fraction bound, unlike the source-side uplink switchLink tends
// to pick — so the patcher can graft instead of falling back.
func receiverUplink(t testing.TB, g *topology.Graph, tree *steiner.Tree, recv topology.NodeID) topology.LinkID {
	t.Helper()
	e := g.EdgeSwitchOf(recv)
	p := tree.Parent[e]
	if p == topology.None {
		t.Fatalf("edge switch %d of receiver %d not in tree", e, recv)
	}
	id := g.LinkBetween(p, e)
	if id < 0 {
		t.Fatalf("no live link %d-%d", p, e)
	}
	return id
}

// TestRepairPatchUsedOnInvalidation: a failure-driven recompute grafts
// the orphaned receivers instead of re-peeling, and the response carries
// the repair lineage.
func TestRepairPatchUsedOnInvalidation(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "r", []topology.NodeID{hosts[0], hosts[4], hosts[9], hosts[13]}); err != nil {
		t.Fatal(err)
	}
	ti, err := s.GetTree(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Patched || ti.RepairGen != 0 {
		t.Fatalf("cold compute marked patched: %+v", ti)
	}
	failed := receiverUplink(t, g, ti.Tree, hosts[13])
	s.FailLink(failed)
	re, err := s.GetTree(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if re.Cached {
		t.Fatal("invalidated entry served from cache")
	}
	if !re.Patched || re.RepairGen != 1 {
		t.Fatalf("failure-driven recompute not patched: patched=%v repairGen=%d", re.Patched, re.RepairGen)
	}
	if err := re.Tree.Validate(g, []topology.NodeID{hosts[4], hosts[9], hosts[13]}); err != nil {
		t.Fatalf("patched tree invalid: %v", err)
	}
	if re.InstallPs <= 0 {
		t.Fatal("graft patch installed rules but charged no latency")
	}
	patched, fellBack := s.RepairCounts()
	if patched != 1 || fellBack != 0 {
		t.Fatalf("RepairCounts = (%d, %d), want (1, 0)", patched, fellBack)
	}
	if st := s.Stats(); st.RepairsPatched != 1 {
		t.Fatalf("Stats repair census wrong: %+v", st)
	}
}

// TestRepairChainCapForcesFullRebuild: after maxRepairChain consecutive
// patches one entry re-peels fully, resetting the chain.
func TestRepairChainCapForcesFullRebuild(t *testing.T) {
	s, g := newTestService(t, 4, Options{})
	hosts := g.Hosts()
	if _, err := s.CreateGroup(context.Background(), "c", []topology.NodeID{hosts[0], hosts[4], hosts[9], hosts[13]}); err != nil {
		t.Fatal(err)
	}
	exp := uint64(0)
	forced := 0
	for i := 0; i < maxRepairChain+3; i++ {
		ti, err := s.GetTree(context.Background(), "c")
		if err != nil {
			t.Fatal(err)
		}
		if ti.RepairGen > maxRepairChain {
			t.Fatalf("repair chain exceeded cap: %d", ti.RepairGen)
		}
		if ti.Patched {
			exp++
		} else {
			if exp == maxRepairChain {
				forced++
			}
			exp = 0
		}
		if ti.RepairGen != exp {
			t.Fatalf("round %d: RepairGen = %d, want %d", i, ti.RepairGen, exp)
		}
		// Invalidate for the next round, then heal so the fabric never
		// degrades past single-failure redundancy. Always orphan the same
		// receiver's edge switch: a small graft the policy accepts, so the
		// chain grows by one per round until the cap forces a rebuild.
		failed := receiverUplink(t, g, ti.Tree, hosts[13])
		s.FailLink(failed)
		if _, err := s.GetTree(context.Background(), "c"); err != nil {
			t.Fatal(err)
		}
		s.RestoreLink(failed)
	}
	if forced == 0 {
		t.Fatal("chain cap never forced a full rebuild")
	}
}

// TestConcurrentInvalidationAndPatch hammers one cache entry with reader
// goroutines while the main goroutine flaps links its tree crosses — the
// race-detector exercise for invalidation concurrent with graft patching
// on the same shard.
func TestConcurrentInvalidationAndPatch(t *testing.T) {
	s, g := newTestService(t, 4, Options{MaxInflight: 64})
	hosts := g.Hosts()
	members := []topology.NodeID{hosts[0], hosts[4], hosts[9], hosts[13]}
	if _, err := s.CreateGroup(context.Background(), "hot", members); err != nil {
		t.Fatal(err)
	}
	ti, err := s.GetTree(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	// Switch-switch links only: single-link failures never strand a host
	// on this fabric, so every recompute must succeed.
	var targets []topology.LinkID
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(topology.LinkID(id))
		if g.Node(l.A).Kind != topology.Host && g.Node(l.B).Kind != topology.Host {
			targets = append(targets, topology.LinkID(id))
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := s.GetTree(context.Background(), "hot")
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("GetTree: %v", err)
					return
				}
				if got.Tree == nil || got.RepairGen > maxRepairChain {
					t.Errorf("bad response: %+v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		id := targets[i%len(targets)]
		s.FailLink(id)
		s.RestoreLink(id)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Deterministic tail: one guaranteed invalidation + recompute so the
	// counters are provably exercised even on a slow machine.
	ti, err = s.GetTree(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	s.FailLink(switchLink(t, g, ti.Tree))
	if _, err := s.GetTree(context.Background(), "hot"); err != nil {
		t.Fatal(err)
	}
	if patched, fellBack := s.RepairCounts(); patched+fellBack == 0 {
		t.Fatal("no repair-path recompute observed")
	}
}
