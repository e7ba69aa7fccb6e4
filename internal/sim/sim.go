// Package sim is a minimal deterministic discrete-event simulation engine:
// a monotonic picosecond clock and a priority queue of events — closures
// (At/After) or typed calls on a Handler (AfterCall). Ties are broken by
// scheduling order, so runs are fully reproducible.
//
// The network model in internal/netsim is built entirely on this engine,
// substituting for the paper's OMNeT++ substrate.
package sim

import (
	"fmt"
	"time"

	"peel/internal/invariant"
)

// Time is simulated time in picoseconds. Picosecond resolution keeps
// byte-level arithmetic exact: one byte at 100 Gb/s is 80 ps, at
// 900 GB/s (NVLink) roughly 1.1 ps.
type Time int64

// Handy unit constants.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts simulated time to floating-point seconds for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts simulated time to a time.Duration (nanosecond floor).
func (t Time) Duration() time.Duration { return time.Duration(t / Nanosecond) }

// FromSeconds converts seconds to simulated time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Handler receives typed events. Scheduling through AfterCall instead of
// After(func) lets a model put millions of events in flight without
// allocating a closure for each: the handler is a long-lived object (the
// network), op selects what to do, and arg carries the one object the
// event is about. A pointer stored in arg does not allocate.
type Handler interface {
	HandleEvent(op int, arg any)
}

// key is what the queue orders: an event's time, its scheduling sequence
// number, and the slab slot that holds what to run. It carries no
// pointers, so sifting keys never runs a GC write barrier and the
// collector never scans the heap's backing array.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// slot is an event's payload, parked in the engine's slab while its key
// waits in the heap. A typed event has h set; a closure event (At/After)
// has h nil and its func() in arg.
type slot struct {
	h   Handler
	arg any
	op  int
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// replaces container/heap, whose any-typed Push/Pop box every event —
// two heap allocations per scheduled event, and events are pushed
// hundreds of millions of times per figure. The backing array keeps its
// capacity across pops, so a draining-and-refilling queue stops
// allocating entirely.
type eventHeap []key

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends the key and restores the heap by sifting it up.
func (h *eventHeap) push(e key) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest key, sifting the displaced tail
// element down.
func (h *eventHeap) pop() key {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// heapCheckInterval is how many processed events separate full heap-
// property scans when invariant checking is on. The scan is O(pending),
// so amortizing keeps checked runs within the overhead budget. Package
// tests shrink it to exercise the scan densely.
var heapCheckInterval uint64 = 4096

// TraceFunc observes every processed event as (timestamp, scheduling
// sequence number). Installed via SetTrace; the golden end-to-end trace
// test digests this stream to pin the exact event order.
type TraceFunc func(at Time, seq uint64)

// Engine owns the clock and the pending-event queue. The zero value is
// ready to use.
type Engine struct {
	pq eventHeap
	// slab holds the payload of every pending event; free lists the slots
	// whose event has run. A slot is cleared the moment its event pops, so
	// the slab pins nothing a finished event referred to.
	slab      []slot
	free      []int32
	now       Time
	seq       uint64
	processed uint64
	trace     TraceFunc
	// suite/monotone cache the active invariant suite's pre-resolved
	// time-monotone counter so the per-event pass costs two atomic loads
	// and an add instead of a string-map lookup.
	suite    *invariant.Suite
	monotone invariant.Counter
}

// SetTrace installs (or, with nil, removes) a per-event observer.
func (e *Engine) SetTrace(fn TraceFunc) { e.trace = fn }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have run; useful for budget checks.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-run events.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic bug, and silently clamping would mask causality errors.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, 0, fn) }

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, nil, 0, fn) }

// AfterCall schedules h.HandleEvent(op, arg) d after the current time. It
// shares the queue and the sequence counter with At/After, so typed and
// closure events interleave in one (at, seq) order.
func (e *Engine) AfterCall(d Time, h Handler, op int, arg any) {
	e.schedule(e.now+d, h, op, arg)
}

// schedule parks the event's payload in a recycled slab slot (fields are
// written one by one: a whole-struct copy goes through typedmemmove) and
// queues its key.
func (e *Engine) schedule(t Time, h Handler, op int, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slab))
		e.slab = append(e.slab, slot{})
	}
	p := &e.slab[i]
	p.h, p.op, p.arg = h, op, arg
	e.seq++
	e.pq.push(key{at: t, seq: e.seq, slot: i})
}

// Step runs the single earliest event; it reports false if none remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	// Release the slot before running the event: the event may schedule
	// others, and they should find this slot free.
	p := &e.slab[ev.slot]
	h, op, arg := p.h, p.op, p.arg
	p.h, p.arg = nil, nil
	e.free = append(e.free, ev.slot)
	if s := invariant.Active(); s != nil {
		if s != e.suite {
			e.suite = s
			e.monotone = s.Counter(invariant.SimTimeMonotone)
		}
		if ev.at >= e.now {
			e.monotone.Pass()
		} else {
			s.Violatef(invariant.SimTimeMonotone,
				"event (at=%d seq=%d) popped before clock %d", ev.at, ev.seq, e.now)
		}
		if e.processed%heapCheckInterval == 0 {
			e.reportHeapIntegrity(s)
		}
	}
	e.now = ev.at
	e.processed++
	if e.trace != nil {
		e.trace(ev.at, ev.seq)
	}
	if h != nil {
		h.HandleEvent(op, arg)
	} else {
		arg.(func())()
	}
	return true
}

// reportHeapIntegrity scans the full pending queue for the min-heap
// property on (at, seq) — no element may order before its parent — and
// checks the slab's books: every slot is either owned by one pending key
// or on the free list.
func (e *Engine) reportHeapIntegrity(s *invariant.Suite) {
	q := e.pq
	ok, bad := true, -1
	for i := 1; i < len(q); i++ {
		if q.less(i, (i-1)/2) {
			ok, bad = false, i
			break
		}
	}
	s.Checkf(invariant.SimHeapIntegrity, ok,
		"heap property broken at index %d (len=%d)", bad, len(q))
	s.Checkf(invariant.SimHeapIntegrity, len(q)+len(e.free) == len(e.slab),
		"slab holds %d slots for %d pending + %d free", len(e.slab), len(q), len(e.free))
}

// Run processes events until the queue drains or the event budget is
// exhausted; it returns an error in the latter case (runaway model).
func (e *Engine) Run(maxEvents uint64) error {
	start := e.processed
	for e.Step() {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: event budget %d exhausted at t=%v", maxEvents, e.now.Duration())
		}
	}
	return nil
}

// Reset returns the engine to its zero state — clock at 0, no pending
// events, counters cleared — while keeping the queue's and the slab's
// allocated capacity. A pooled engine replayed across simulation runs
// therefore schedules without reallocating, and holds no reference to
// anything the abandoned events carried.
func (e *Engine) Reset() {
	e.pq = e.pq[:0]
	clear(e.slab)
	e.slab = e.slab[:0]
	e.free = e.free[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// RunUntil processes events with timestamps ≤ deadline, advancing the
// clock to the deadline if the queue drains earlier.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
