package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one operation (a request, a fail→heal cycle, a sweep)
// share Op; Parent is the span that caused this one, or noSpan for the
// operation's root.
type span struct {
	ID, Parent int32
	Op         int64
	Name       string
	Start, End int64 // ns since the tracer was created
}

const noSpan int32 = -1

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally and the untraced pass
// pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return op
}

// start opens a span and returns its id for end and for children.
func (t *tracer) start(op int64, parent int32, name string) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)), End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime aggregates spans by name.
type layerTime struct {
	Count       int
	Total, Self float64 // seconds
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover (overlapping children — parallel sweep
// cells under one sweep — count their union once). spans is the tracer's
// slice or a contiguous part of it that holds whole operations.
func selfTimes(spans []span) []int64 {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].ID
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s.ID-base)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ch := kids[s.ID]
		if len(ch) == 0 {
			continue
		}
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, hi := int64(0), s.Start
		for _, c := range ch {
			lo, end := spans[c].Start, spans[c].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// byLayer sums span and self time per span name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += float64(s.End-s.Start) / 1e9
		lt.Self += float64(self[i]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// checkSpans reports the first structural defect: an unfinished span, a
// child outside its parent or in another operation, negative self time,
// or an operation with other than one root.
func checkSpans(spans []span) error {
	roots := make(map[int64]int)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q not ended", s.ID, s.Name)
		}
		if s.Parent == noSpan {
			roots[s.Op]++
			continue
		}
		p := spans[s.Parent]
		if p.Op != s.Op {
			return fmt.Errorf("span %d %q: parent %q belongs to op %d, not %d", s.ID, s.Name, p.Name, p.Op, s.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] outside parent %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d %q has self time %d ns", i, spans[i].Name, d)
		}
	}
	for _, s := range spans {
		if roots[s.Op] != 1 {
			return fmt.Errorf("op %d has %d roots", s.Op, roots[s.Op])
		}
	}
	return nil
}

// writeSpans writes one JSON object per line to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for _, s := range spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(s.ID), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendInt(buf, s.Op, 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, "}\n"...)
		w.Write(buf) // error surfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
