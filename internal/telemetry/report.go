package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"peel/internal/sim"
)

// SchemaVersion identifies the run-report JSON schema. Bump on any
// field addition, removal, or meaning change; consumers (CI's
// telemetry-smoke golden diff, the golden tests) key on it.
const SchemaVersion = 1

// RunReport is the JSON run-report: every named primitive's final state,
// the per-link traffic aggregates, and the flight-recorder census. Field
// order is fixed by the struct and every slice is sorted by name, so the
// encoding is byte-stable for a given simulation — counters, histograms,
// and link aggregates are all integer-accumulated, making the report
// identical for any worker count.
type RunReport struct {
	Schema     int               `json:"schema"`
	Label      string            `json:"label,omitempty"`
	Aborted    string            `json:"aborted,omitempty"`
	Counters   []CounterReport   `json:"counters"`
	Gauges     []GaugeReport     `json:"gauges"`
	Histograms []HistogramReport `json:"histograms"`
	Links      []LinkReport      `json:"links"`
	Trace      TraceReport       `json:"trace"`
}

// CounterReport is one counter's final value.
type CounterReport struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeReport is one gauge's last value and high-water mark.
type GaugeReport struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// BucketReport is one non-empty histogram bucket: the inclusive upper
// bound and its count.
type BucketReport struct {
	LE    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramReport is one histogram's census with approximate tail
// quantiles (upper bucket bounds).
type HistogramReport struct {
	Name    string         `json:"name"`
	Count   int64          `json:"count"`
	Sum     int64          `json:"sum"`
	P50     int64          `json:"p50"`
	P99     int64          `json:"p99"`
	Buckets []BucketReport `json:"buckets"`
}

// LinkReport is one directed channel's aggregate across every published
// run: traffic, failure history, and mean utilization.
type LinkReport struct {
	Link        string  `json:"link"`
	Runs        int64   `json:"runs"`
	Bytes       int64   `json:"bytes"`
	Frames      int64   `json:"frames"`
	Drops       int64   `json:"drops"`
	Downs       int64   `json:"downs"`
	DownPs      int64   `json:"down_ps"`
	Utilization float64 `json:"utilization"`
}

// TraceReport is the flight recorder census: how much history the ring
// saw and still retains.
type TraceReport struct {
	Recorded uint64 `json:"recorded"`
	Retained int    `json:"retained"`
}

// Report snapshots the sink into an exportable run-report.
func (s *Sink) Report(label string) RunReport {
	r := RunReport{Schema: SchemaVersion, Label: label,
		Counters: []CounterReport{}, Gauges: []GaugeReport{},
		Histograms: []HistogramReport{}, Links: []LinkReport{}}
	if s == nil {
		return r
	}
	if reason, ok := s.Aborted(); ok {
		r.Aborted = reason
	}
	s.mu.Lock()
	counters, gauges, hists := s.counters, s.gauges, s.hists
	links := s.links
	s.mu.Unlock()
	for _, name := range sortedNames(counters) {
		r.Counters = append(r.Counters, CounterReport{Name: name, Value: counters[name].Value()})
	}
	for _, name := range sortedNames(gauges) {
		g := gauges[name]
		r.Gauges = append(r.Gauges, GaugeReport{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for _, name := range sortedNames(hists) {
		h := hists[name]
		hr := HistogramReport{Name: name, Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99), Buckets: []BucketReport{}}
		for i := 0; i < h.layout.buckets(); i++ {
			if c := h.Bucket(i); c > 0 {
				hr.Buckets = append(hr.Buckets, BucketReport{LE: h.layout.UpperBound(i), Count: c})
			}
		}
		r.Histograms = append(r.Histograms, hr)
	}
	for _, name := range sortedNames(links) {
		st := links[name]
		r.Links = append(r.Links, LinkReport{Link: name, Runs: st.Runs, Bytes: st.Bytes,
			Frames: st.Frames, Drops: st.Drops, Downs: st.Downs, DownPs: st.DownPs,
			Utilization: st.Utilization()})
	}
	r.Trace = TraceReport{Recorded: s.rec.Total(), Retained: s.rec.Len()}
	return r
}

// WriteJSON writes the report indented with a trailing newline — the
// checked-in golden format.
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SummaryTable renders the report as an aligned human-readable digest:
// the table peelsim appends to experiment output when telemetry is armed.
func (r RunReport) SummaryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== telemetry summary (schema %d) ==\n", r.Schema)
	if r.Aborted != "" {
		fmt.Fprintf(&b, "ABORTED: %s\n", r.Aborted)
	}
	for _, c := range r.Counters {
		fmt.Fprintf(&b, "  %-34s %d\n", c.Name, c.Value)
	}
	for _, g := range r.Gauges {
		fmt.Fprintf(&b, "  %-34s last=%d max=%d\n", g.Name, g.Value, g.Max)
	}
	for _, h := range r.Histograms {
		mean := int64(0)
		if h.Count > 0 {
			mean = h.Sum / h.Count
		}
		fmt.Fprintf(&b, "  %-34s n=%d mean=%d p50≤%d p99≤%d\n", h.Name, h.Count, mean, h.P50, h.P99)
	}
	if n := len(r.Links); n > 0 {
		hot := r.Links[0]
		for _, l := range r.Links[1:] {
			if l.Bytes > hot.Bytes {
				hot = l
			}
		}
		fmt.Fprintf(&b, "  links: %d observed, hottest %s (%d B, util %.3f)\n",
			n, hot.Link, hot.Bytes, hot.Utilization)
	}
	fmt.Fprintf(&b, "  trace: %d events recorded, last %d retained\n", r.Trace.Recorded, r.Trace.Retained)
	return b.String()
}

// Sample is one CSV time-series row: a periodic snapshot of one directed
// channel's cumulative counters during one run.
type Sample struct {
	Run    int64    // sink-assigned run ID
	At     sim.Time // simulated capture time
	Link   string   // directed channel label
	Bytes  int64    // cumulative payload bytes serialized
	Frames int64    // cumulative frames serialized
	Drops  int64    // cumulative link-failure drops
	QBytes int64    // instantaneous queue depth
}

// series buffers time-series samples under the sink mutex. Sampling is
// opt-in (netsim's sampler records only when armed), so the buffer's
// growth never taxes a run that didn't ask for it.
type series struct {
	mu   sync.Mutex
	rows []Sample
}

// RecordSample appends one time-series row.
func (s *Sink) RecordSample(row Sample) {
	if s == nil {
		return
	}
	s.series.mu.Lock()
	s.series.rows = append(s.series.rows, row)
	s.series.mu.Unlock()
}

// Samples returns the buffered rows sorted by (run, time, link).
func (s *Sink) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.series.mu.Lock()
	out := make([]Sample, len(s.series.rows))
	copy(out, s.series.rows)
	s.series.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Link < b.Link
	})
	return out
}

// WriteCSV writes the buffered time series as CSV with a header row.
func (s *Sink) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "run,t_ps,link,bytes,frames,drops,queue_bytes\n"); err != nil {
		return err
	}
	for _, r := range s.Samples() {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n",
			r.Run, int64(r.At), r.Link, r.Bytes, r.Frames, r.Drops, r.QBytes); err != nil {
			return err
		}
	}
	return nil
}
