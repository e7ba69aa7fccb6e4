package wire

import (
	"context"
	"testing"
	"time"

	"peel/internal/topology"
)

// TestEpochPushCutsOverWithoutResync covers the announced-reconfiguration
// wire path: PlanEpoch pushes the pre-peeled tree with FlagEpoch before
// the boundary, the commit itself pushes nothing (the subscriber already
// cut over), and the whole switch-over costs no re-subscription.
func TestEpochPushCutsOverWithoutResync(t *testing.T) {
	h := newHarness(t, 4, Options{})
	h.makeGroup(t, "g0", 0, 5)

	c, err := Dial(h.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe("g0"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	snap := <-c.Updates()
	if snap.Err != nil || !snap.Resync() {
		t.Fatalf("first update is not the subscribe snapshot: %+v", snap)
	}

	ti, err := h.svc.GetTree(context.Background(), "g0")
	if err != nil {
		t.Fatal(err)
	}
	var doomed topology.LinkID = -1
	for _, m := range ti.Tree.Members {
		p := ti.Tree.Parent[m]
		if p != topology.None && h.g.Node(p).Kind.IsSwitch() && h.g.Node(m).Kind.IsSwitch() {
			doomed = h.g.LinkBetween(p, m)
			break
		}
	}
	if doomed < 0 {
		t.Fatal("no inter-switch tree link to remove")
	}

	if _, err := h.svc.PlanEpoch(context.Background(), []topology.LinkID{doomed}); err != nil {
		t.Fatal(err)
	}
	var push TreeUpdate
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool {
		push = u
		return u.Err == nil && u.EpochDriven()
	})
	if push.FailureDriven() || push.Resync() {
		t.Fatalf("epoch push carries foreign flags: %+v", push)
	}
	for _, e := range push.Edges {
		id := h.g.LinkBetween(e[0], e[1])
		if id == doomed {
			t.Fatal("pre-peeled push still crosses the to-be-removed circuit")
		}
	}

	// Commit, then force a failure push on a different link: the next
	// update the client sees must be that failure push — the commit
	// itself pushed nothing, because the subscriber had already cut over.
	h.svc.CommitEpoch([]topology.LinkID{doomed}, nil)
	// Heal the removed circuit before flapping: the pre-peeled tree and
	// the doomed circuit can share a leaf's only two uplinks, and a flap
	// with both down would disconnect a member instead of pushing.
	h.svc.RestoreLink(doomed)
	h.flapTreeLink(t, "g0")
	waitForUpdate(t, c, 5*time.Second, func(u TreeUpdate) bool {
		if u.Err != nil {
			return false
		}
		if u.EpochDriven() {
			t.Fatalf("spurious epoch push after the commit: %+v", u)
		}
		return u.FailureDriven()
	})
	if rs := h.srv.Stats().Resyncs; rs != 0 {
		t.Fatalf("switch-over cost %d resyncs, want 0", rs)
	}
}
