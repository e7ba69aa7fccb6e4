package sim

import (
	"testing"

	"peel/internal/invariant"
	"peel/internal/invariant/invtest"
)

// Mutation self-tests: corrupt engine state on purpose and prove the
// corresponding checker fires. A checker that can't fail is not a check.

func TestMutationTimeMonotoneFires(t *testing.T) {
	for _, lane := range []bool{false, true} {
		s := invtest.Capture(t, func() {
			e := &Engine{}
			if lane {
				e.Lane(50).Call(new(order), 0, nil)
			} else {
				e.At(50, func() {})
			}
			e.now = 100 // clock corrupted past the pending event
			e.Step()
		})
		if s.Violations(invariant.SimTimeMonotone) == 0 {
			t.Fatalf("time-monotone checker did not fire on a past-due event (lane=%v)", lane)
		}
	}
}

func TestMutationHeapIntegrityFires(t *testing.T) {
	s := invtest.Capture(t, func() {
		e := &Engine{}
		for i := 1; i <= 7; i++ {
			e.At(Time(i*10), func() {})
		}
		e.pq[3].at = -5 // deep element now orders before its parent
		e.reportHeapIntegrity(invariant.Active())
	})
	if s.Violations(invariant.SimHeapIntegrity) == 0 {
		t.Fatal("heap-integrity checker did not fire on a corrupted heap")
	}
}

func TestMutationLaneOrderFires(t *testing.T) {
	s := invtest.Capture(t, func() {
		e := &Engine{}
		l := e.Lane(10)
		for i := 0; i < 4; i++ {
			l.Call(new(order), i, nil)
		}
		q := e.lanes[l.i].q
		q[1], q[2] = q[2], q[1] // a later-scheduled key now runs first
		e.reportHeapIntegrity(invariant.Active())
	})
	if s.Violations(invariant.SimHeapIntegrity) == 0 {
		t.Fatal("heap-integrity checker did not fire on an out-of-order lane")
	}
}

func TestMutationSlabLeakFires(t *testing.T) {
	s := invtest.Capture(t, func() {
		e := &Engine{}
		for i := 1; i <= 3; i++ {
			e.At(Time(i*10), func() {})
		}
		e.Step()
		e.free = e.free[:0] // the popped event's slot is now owned by nobody
		e.reportHeapIntegrity(invariant.Active())
	})
	if s.Violations(invariant.SimHeapIntegrity) == 0 {
		t.Fatal("heap-integrity checker did not fire on a leaked slab slot")
	}
}

func TestHeapIntegrityScanRunsFromStep(t *testing.T) {
	old := heapCheckInterval
	heapCheckInterval = 1
	defer func() { heapCheckInterval = old }()
	s := invtest.Capture(t, func() {
		e := &Engine{}
		for i := 1; i <= 4; i++ {
			e.At(Time(i*10), func() {})
			e.Lane(Time(i%2*10)).Call(new(order), i, nil)
		}
		for e.Step() {
		}
	})
	if s.Checks(invariant.SimHeapIntegrity) == 0 {
		t.Fatal("Step never ran the heap scan with interval 1")
	}
	if s.Violations(invariant.SimHeapIntegrity) != 0 {
		t.Fatalf("clean heap reported violations: %s", s.FirstFailure(invariant.SimHeapIntegrity))
	}
}
