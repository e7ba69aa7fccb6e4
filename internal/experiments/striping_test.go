package experiments

import "testing"

// TestStripingStudyLargeMessages pins the acceptance gate of the striped
// multi-tree design: on the healthy oversubscribed fat-tree, striping
// chunks over link-disjoint trees must not lose to single-tree PEEL at
// the largest message size (where the core links are the bottleneck and
// k disjoint paths buy real bandwidth).
func TestStripingStudyLargeMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := StripingStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	peel := seriesY(t, res, "peel", false)
	striped := seriesY(t, res, "striped-peel", false)
	last := len(res.X) - 1
	if res.X[last] < 64 {
		t.Fatalf("largest message is %vMB, want the 64MB point", res.X[last])
	}
	if striped[last] > peel[last] {
		t.Fatalf("striped-peel CCT %v > single-tree peel %v at %vMB",
			striped[last], peel[last], res.X[last])
	}
	// The shared-link multitree control must not beat disjoint striping by
	// more than noise — if it does, disjointness isn't buying anything.
	multi := seriesY(t, res, "multitree-4", false)
	if striped[last] > 1.5*multi[last] {
		t.Fatalf("disjoint striping %v is 1.5x worse than shared-link multitree %v",
			striped[last], multi[last])
	}
}
