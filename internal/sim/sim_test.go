package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestOrderingAndClock(t *testing.T) {
	var e Engine
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() {
		got = append(got, 2)
		e.After(5*Nanosecond, func() { got = append(got, 25) })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 25, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock=%v want 30ns", e.Now())
	}
	if e.Processed() != 4 || e.Pending() != 0 {
		t.Fatalf("processed=%d pending=%d", e.Processed(), e.Pending())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(time42(), func() { got = append(got, i) })
	}
	e.Run(0)
	if !sort.IntsAreSorted(got) {
		t.Fatal("same-timestamp events must run in scheduling order")
	}
}

func time42() Time { return 42 * Microsecond }

func TestPastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestEventBudget(t *testing.T) {
	var e Engine
	var loop func()
	loop = func() { e.After(Nanosecond, loop) }
	e.At(0, loop)
	if err := e.Run(1000); err == nil {
		t.Fatal("runaway loop must trip the event budget")
	}
}

// TestRunUntil holds events in the heap and in lanes: RunUntil runs
// exactly those due by the deadline, a lane event due at the deadline
// included.
func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	var got order
	e.At(Millisecond, func() { fired++ })
	e.At(3*Millisecond, func() { fired++ })
	e.Lane(2*Millisecond).Call(&got, 2, nil)
	e.Lane(4*Millisecond).Call(&got, 4, nil)
	e.RunUntil(2 * Millisecond)
	if fired != 1 || len(got) != 1 || e.Pending() != 2 {
		t.Fatalf("fired=%d typed=%v pending=%d, want 1, [2], 2", fired, got, e.Pending())
	}
	if e.Now() != 2*Millisecond {
		t.Fatalf("clock must advance to deadline, got %v", e.Now())
	}
	e.RunUntil(5 * Millisecond)
	if fired != 2 || len(got) != 2 || e.Pending() != 0 || e.Now() != 5*Millisecond {
		t.Fatalf("fired=%d typed=%v pending=%d now=%v", fired, got, e.Pending(), e.Now())
	}
}

func TestUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatal("second must be 1e12 ps")
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds=%v", got)
	}
	if got := FromSeconds(0.001); got != Millisecond {
		t.Fatalf("FromSeconds=%v", got)
	}
	if got := (1500 * Nanosecond).Duration(); got != 1500*time.Nanosecond {
		t.Fatalf("Duration=%v", got)
	}
}

// Property: arbitrary event sets run in nondecreasing time order and the
// clock never goes backward.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(offsets []uint32) bool {
		var e Engine
		ok := true
		last := Time(-1)
		for _, off := range offsets {
			at := Time(off % 1_000_000)
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
