package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is a container/heap reference implementation with the engine's
// exact ordering (at, then seq) — the oracle the hand-rolled heap is
// checked against.
type refHeap []key

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(key)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// ran records which event an engine step executed: typed events report
// through HandleEvent (op carries the event's number, arg must come back
// as scheduled), closure events write the field themselves.
type ran struct {
	id  uint64
	arg *uint64
}

func (r *ran) HandleEvent(op int, arg any) { r.id, r.arg = uint64(op), arg.(*uint64) }

// TestHeapMatchesContainerHeap drives the engine and the container/heap
// reference through identical random schedule/step interleavings of
// closure (At) and typed (AfterCall, Lane.Call) events and requires every
// step to run exactly the event the reference pops — same (at, seq), same
// payload — including the seq tie-break for events sharing a timestamp.
// Three lanes take part: one at delay 0, and two whose delays AfterCall
// also draws, so heap and lane keys tie on at and only seq orders them.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var e Engine
		lanes := []Lane{e.Lane(0), e.Lane(5 * Microsecond), e.Lane(12 * Microsecond)}
		var want refHeap
		var seq uint64
		var got ran
		var tracedAt Time
		var tracedSeq uint64
		e.SetTrace(func(at Time, s uint64) { tracedAt, tracedSeq = at, s })
		args := map[uint64]*uint64{} // typed events' arguments by seq
		step := func(when string, op int) {
			got = ran{}
			if !e.Step() {
				t.Fatalf("trial %d %s %d: engine empty, reference holds %d", trial, when, op, len(want))
			}
			w := heap.Pop(&want).(key)
			if tracedAt != w.at || tracedSeq != w.seq || got.id != w.seq || got.arg != args[w.seq] {
				t.Fatalf("trial %d %s %d: ran (at=%v seq=%d payload=%d arg=%p) want (at=%v seq=%d arg=%p)",
					trial, when, op, tracedAt, tracedSeq, got.id, got.arg, w.at, w.seq, args[w.seq])
			}
		}
		ops := 400 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if rng.Intn(3) > 0 || e.Pending() == 0 {
				seq++
				// Few distinct timestamps: ties are the interesting case.
				d := Time(rng.Intn(16)) * Microsecond
				switch rng.Intn(3) {
				case 0:
					id := seq
					e.At(e.Now()+d, func() { got.id = id })
				case 1:
					args[seq] = new(uint64)
					e.AfterCall(d, &got, int(seq), args[seq])
				default:
					l := lanes[rng.Intn(len(lanes))]
					d = e.lanes[l.i].d
					args[seq] = new(uint64)
					l.Call(&got, int(seq), args[seq])
				}
				heap.Push(&want, key{at: e.Now() + d, seq: seq})
			} else {
				step("op", op)
			}
			if e.Pending() != len(want) {
				t.Fatalf("trial %d: size %d vs reference %d", trial, e.Pending(), len(want))
			}
		}
		for len(want) > 0 {
			step("drain", len(want))
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after reference drained", trial, e.Pending())
		}
	}
}

// order records typed events by op, in the order they run.
type order []int

func (o *order) HandleEvent(op int, _ any) { *o = append(*o, op) }

// TestEngineReset verifies a reset engine replays a schedule identically
// to a fresh one — the contract that lets harness code reuse engines —
// with events pending in the heap and in lanes when Reset strikes.
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) (got order, now Time, processed uint64) {
		e.At(30*Nanosecond, func() { got = append(got, 4) })
		e.At(10*Nanosecond, func() { got = append(got, 1) })
		e.Lane(10*Nanosecond).Call(&got, 2, nil)
		e.At(10*Nanosecond, func() { got = append(got, 3) })
		e.Lane(0).Call(&got, 0, nil)
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return got, e.Now(), e.Processed()
	}
	var reused Engine
	first, now1, done1 := run(&reused)
	reused.Lane(10*Nanosecond).Call(new(order), 0, nil) // pending in a lane
	reused.After(Nanosecond, func() {})                 // and in the heap
	lanes := len(reused.lanes)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Processed() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d processed=%d",
			reused.Now(), reused.Pending(), reused.Processed())
	}
	if len(reused.lanes) != lanes {
		t.Fatalf("Reset dropped lane registrations: %d lanes, had %d", len(reused.lanes), lanes)
	}
	second, now2, done2 := run(&reused)
	var fresh Engine
	third, now3, done3 := run(&fresh)
	want := order{0, 1, 2, 3, 4}
	for i := range want {
		if first[i] != want[i] || second[i] != want[i] || third[i] != want[i] {
			t.Fatalf("replay diverged: %v / %v / %v, want %v", first, second, third, want)
		}
	}
	if now1 != now2 || now1 != now3 || done1 != done2 || done1 != done3 {
		t.Fatalf("clock/counters diverged: (%v,%d) (%v,%d) (%v,%d)",
			now1, done1, now2, done2, now3, done3)
	}
}

// TestResetDropsPendingEvents verifies Reset abandons scheduled events,
// in the heap and in lanes, and that a lane handle taken before Reset
// still schedules afterwards.
func TestResetDropsPendingEvents(t *testing.T) {
	var e Engine
	fired := false
	var got order
	lane := e.Lane(Millisecond)
	e.At(Millisecond, func() { fired = true })
	lane.Call(&got, 1, nil)
	e.Lane(0).Call(&got, 2, nil)
	e.Reset()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired || len(got) != 0 {
		t.Fatalf("events survived Reset: closure fired=%v, typed ran %v", fired, got)
	}
	lane.Call(&got, 3, nil)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 3 || e.Now() != Millisecond {
		t.Fatalf("lane after Reset ran %v at %v, want [3] at 1ms", got, e.Now())
	}
}

// TestResetClearsSlab verifies a reset engine references nothing the
// abandoned events carried: a pooled engine must not pin the previous
// run's frames and flows through stale slab slots.
func TestResetClearsSlab(t *testing.T) {
	var e Engine
	var h ran
	for i := 0; i < 8; i++ {
		e.AfterCall(Time(i), &h, i, new(uint64))
		e.After(Time(i), func() {})
	}
	e.Step() // one slot on the free list, the rest pending
	e.Reset()
	if len(e.slab) != 0 || len(e.free) != 0 {
		t.Fatalf("reset left slab=%d free=%d", len(e.slab), len(e.free))
	}
	for i, s := range e.slab[:cap(e.slab)] {
		if s != (slot{}) {
			t.Fatalf("slab slot %d still holds %+v after Reset", i, s)
		}
	}
}

// TestTypedEventZeroAlloc pins the point of typed events: scheduling and
// running one, through the heap or a lane, allocates nothing once the
// queue, the lane and the slab have grown.
func TestTypedEventZeroAlloc(t *testing.T) {
	var e Engine
	var h ran
	arg := new(uint64)
	lane := e.Lane(64)
	for i := 0; i < 64; i++ {
		e.AfterCall(Time(i), &h, i, arg)
		lane.Call(&h, i, arg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.AfterCall(64, &h, 1, arg)
		e.Step()
	}); avg != 0 {
		t.Fatalf("AfterCall+Step allocates %v per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		lane.Call(&h, 1, arg)
		e.Step()
	}); avg != 0 {
		t.Fatalf("Lane.Call+Step allocates %v per event, want 0", avg)
	}
}
