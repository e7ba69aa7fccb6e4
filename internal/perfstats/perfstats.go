// Package perfstats is the evaluation harness's performance observability
// layer: per-run event/wall-time accounting aggregated across the
// (possibly parallel) simulations of one figure, heap-allocation
// deltas, and a parser/writer for `go test -bench` output so kernel
// benchmark results can be tracked as checked-in BENCH_*.json files
// (scripts/bench.sh).
package perfstats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Collector aggregates run statistics from concurrent simulation runs.
// The zero value is ready to use; a nil *Collector ignores Record calls,
// so harness code can thread one unconditionally.
type Collector struct {
	mu      sync.Mutex
	runs    int
	events  uint64
	simWall time.Duration
}

// Record adds one simulation run's event count and wall time.
func (c *Collector) Record(events uint64, wall time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.runs++
	c.events += events
	c.simWall += wall
	c.mu.Unlock()
}

// Summary is a snapshot of the collected totals.
type Summary struct {
	Runs    int           // simulation runs recorded
	Events  uint64        // events processed across all runs
	SimWall time.Duration // summed per-run wall time (≈ CPU time when parallel)
}

// Summary returns the totals so far.
func (c *Collector) Summary() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Summary{Runs: c.runs, Events: c.events, SimWall: c.simWall}
}

// Note renders a single-line digest for Result.Notes: run count, total
// events, elapsed wall clock, aggregate throughput, and worker occupancy
// — summed run time over elapsed time, i.e. how many workers were busy on
// average. Occupancy is not a speed-up over a serial run: the same events
// cost more CPU when every core is running (the bench measures Fig 5 at
// 1.42× on two fully occupied workers), so it only says whether the
// sweep kept its workers fed.
func (c *Collector) Note(elapsed time.Duration, allocs uint64) string {
	s := c.Summary()
	eps := 0.0
	if elapsed > 0 {
		eps = float64(s.Events) / elapsed.Seconds()
	}
	busy := 1.0
	if elapsed > 0 && s.SimWall > 0 {
		busy = s.SimWall.Seconds() / elapsed.Seconds()
	}
	return fmt.Sprintf("perf: %d runs, %.3gM events in %v (%.3gM events/s, %.2f workers busy, %.3gM allocs)",
		s.Runs, float64(s.Events)/1e6, elapsed.Round(time.Millisecond), eps/1e6, busy, float64(allocs)/1e6)
}

// MemAllocs returns the process's cumulative heap allocation count
// (runtime.MemStats.Mallocs); differences bracket a workload's
// allocation cost. It stops the world briefly — call it per figure, not
// per run.
func MemAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. the flap-churn
	// benchmark's "p99-ns") keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the schema of a checked-in BENCH_*.json file.
type BenchReport struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// ParseGoBench extracts benchmark lines from `go test -bench` output.
// Unparseable lines (headers, PASS/ok, logs) are skipped.
func ParseGoBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Minimum: Name iters ns/op-value "ns/op"
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		b := Benchmark{Name: trimProcSuffix(fields[0]), Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				// Custom b.ReportMetric units (p99-ns and friends).
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// trimProcSuffix drops the -N GOMAXPROCS suffix go test appends to
// benchmark names, so reports from different machines share keys.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// NewBenchReport stamps a report with the build environment.
func NewBenchReport(label, note string, benchmarks []Benchmark) BenchReport {
	return BenchReport{
		Label:      label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
		Benchmarks: benchmarks,
	}
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
