// Package sim is a minimal deterministic discrete-event simulation engine:
// a monotonic picosecond clock and a queue of events — closures (At/After)
// or typed calls on a Handler (AfterCall, Lane.Call). Ties are broken by
// scheduling order, so runs are fully reproducible.
//
// Pending events wait in one of two places. A binary min-heap takes any
// delay. Beside it sit FIFO lanes, one per fixed delay d: an event called
// through a lane is due at now + d, and since d is fixed and now never
// decreases, each new lane event is due no earlier than the lane's tail —
// and its seq is larger — so a lane is already in (at, seq) order and
// appending costs no sift. Step runs the earliest of the heap top and
// the lane heads, so the engine pops exactly the order one heap would.
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
// collector never scans the heap's or a lane's backing array.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// before reports whether k runs ahead of o: earlier time, then earlier
// scheduling order.
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// slot is an event's payload, parked in the engine's slab while its key
// waits in the heap or a lane. A typed event has h set; a closure event
// (At/After) has h nil and its func() in arg.
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

func (h eventHeap) less(i, j int) bool { return h[i].before(h[j]) }

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

// lane is the FIFO behind a Lane: q[head:] are its pending keys, oldest
// first. It is compacted in place once the consumed prefix outgrows the
// pending part, so a lane that never drains reuses one backing array.
type lane struct {
	d    Time
	q    []key
	head int
}

// pending returns the lane's waiting keys in run order.
func (l *lane) pending() []key { return l.q[l.head:] }

// Lane schedules typed events that all run the same fixed delay after
// they are called. It is a handle into its engine, obtained from
// Engine.Lane and valid for the engine's lifetime.
type Lane struct {
	e *Engine
	i int
}

// Call schedules h.HandleEvent(op, arg) the lane's delay after the
// current time. It draws its seq and parks its payload exactly as
// AfterCall does, so the two interleave in one (at, seq) order; only the
// key's resting place differs: the lane's tail instead of a heap sift.
func (l Lane) Call(h Handler, op int, arg any) {
	e := l.e
	ln := &e.lanes[l.i]
	ln.q = append(ln.q, e.park(e.now+ln.d, h, op, arg))
}

// heapCheckInterval is how many processed events separate full scans of
// the pending queue (heap and lanes) when invariant checking is on. The scan is O(pending),
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
	// lanes are the fixed-delay FIFOs, registered by Lane and never
	// removed; each holds its pending keys in (at, seq) order.
	lanes []lane
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
func (e *Engine) Pending() int {
	n := len(e.pq)
	for i := range e.lanes {
		n += len(e.lanes[i].pending())
	}
	return n
}

// Lane returns the engine's lane for delay d, registering it on first
// use; every caller asking for the same d shares one lane. Lane events
// are due in the order they are called (see the package comment), so a
// model that schedules many events at a few constant delays should call
// them through lanes. A negative delay panics: it would schedule into
// the past.
func (e *Engine) Lane(d Time) Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: lane delay %d is negative", d))
	}
	for i := range e.lanes {
		if e.lanes[i].d == d {
			return Lane{e, i}
		}
	}
	e.lanes = append(e.lanes, lane{d: d})
	return Lane{e, len(e.lanes) - 1}
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic bug, and silently clamping would mask causality errors.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, 0, fn) }

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, nil, 0, fn) }

// AfterCall schedules h.HandleEvent(op, arg) d after the current time. It
// shares the queue and the sequence counter with At/After and the lanes,
// so typed and closure events interleave in one (at, seq) order.
func (e *Engine) AfterCall(d Time, h Handler, op int, arg any) {
	e.schedule(e.now+d, h, op, arg)
}

// schedule parks the event and sifts its key into the heap.
func (e *Engine) schedule(t Time, h Handler, op int, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.pq.push(e.park(t, h, op, arg))
}

// park stores the event's payload in a recycled slab slot (fields are
// written one by one: a whole-struct copy goes through typedmemmove),
// draws its seq, and returns the key that will order it.
func (e *Engine) park(t Time, h Handler, op int, arg any) key {
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
	return key{at: t, seq: e.seq, slot: i}
}

// Where next found the earliest key: a lane index ≥ 0, or one of these.
const (
	inHeap  = -1
	nowhere = -2
)

// next returns the earliest pending key by (at, seq) and where it waits.
// Each lane is in (at, seq) order, so only its head competes with the
// heap top.
func (e *Engine) next() (k key, from int) {
	from = nowhere
	if len(e.pq) > 0 {
		k, from = e.pq[0], inHeap
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.head < len(l.q) && (from == nowhere || l.q[l.head].before(k)) {
			k, from = l.q[l.head], i
		}
	}
	return k, from
}

// popLane drops lane i's head key.
func (e *Engine) popLane(i int) {
	l := &e.lanes[i]
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	} else if l.head > 64 && l.head*2 > len(l.q) {
		l.q = append(l.q[:0], l.q[l.head:]...)
		l.head = 0
	}
}

// Step runs the single earliest event; it reports false if none remain.
func (e *Engine) Step() bool {
	ev, from := e.next()
	switch from {
	case nowhere:
		return false
	case inHeap:
		e.pq.pop()
	default:
		e.popLane(from)
	}
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

// reportHeapIntegrity scans the full pending queue: the heap must keep
// the min-heap property on (at, seq) — no element may order before its
// parent — and every lane must be strictly ascending in (at, seq), the
// FIFO property next relies on to look only at lane heads. It also checks
// the slab's books: every slot is either owned by one pending key, in the
// heap or in a lane, or on the free list.
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
	laned, badLane := 0, -1
	for i := range e.lanes {
		p := e.lanes[i].pending()
		for j := 1; j < len(p) && badLane < 0; j++ {
			if !p[j-1].before(p[j]) {
				badLane, bad = i, j
			}
		}
		laned += len(p)
	}
	s.Checkf(invariant.SimHeapIntegrity, badLane < 0,
		"lane %d out of (at, seq) order at position %d", badLane, bad)
	s.Checkf(invariant.SimHeapIntegrity, len(q)+laned+len(e.free) == len(e.slab),
		"slab holds %d slots for %d pending (%d in lanes) + %d free",
		len(e.slab), len(q)+laned, laned, len(e.free))
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
// events, counters cleared — while keeping the queue's, the lanes' and
// the slab's allocated capacity. Lane registrations survive, emptied, so
// Lane handles stay valid. A pooled engine replayed across simulation
// runs therefore schedules without reallocating, and holds no reference
// to anything the abandoned events carried.
func (e *Engine) Reset() {
	e.pq = e.pq[:0]
	for i := range e.lanes {
		e.lanes[i].q, e.lanes[i].head = e.lanes[i].q[:0], 0
	}
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
	for {
		if ev, from := e.next(); from == nowhere || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
