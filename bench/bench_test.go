package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestMain lets the test binary stand in for the benchmark's own: with
// BENCH_AS_MAIN set it runs main(), which is how execRound's child
// processes start under go test.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the tables in
// main.go, in both directions, so a name, unit, direction or bound cannot
// change in one and not the other.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %q, want %q", spec.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %q, want %q", spec.Paths, want)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: JSON has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in JSON, %d in code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: JSON has %s [%s] %s, code has %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in JSON, %v in code", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at smoke scale, untraced and traced
// (which includes the layer suite), and checks what the pipeline relies
// on: the result is correct, exactly the declared metrics come out, each
// is finite, end-to-end ones are never zero, spans are well formed, and a
// seed fixes every count.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			defer func() {
				if t.Failed() {
					t.Log(out.String())
				}
			}()
			res, _ := runWorkload(&out, w, newEnv(1, true), runRound, 0, false, "")
			checkResult(t, res, endToEnd, true)

			traceOut := filepath.Join(t.TempDir(), "spans.jsonl")
			res, spans := runWorkload(&out, w, newEnv(1, true), runRound, 0, true, traceOut)
			checkResult(t, res, perLayer, false)
			if res.Metrics["bench.mirror_match"].Value != 1 {
				t.Errorf("the Fig5 mirror no longer reproduces experiments.Fig5")
			}
			if len(spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			if st, err := os.Stat(traceOut); err != nil || st.Size() == 0 {
				t.Errorf("spans not written to %s: %v", traceOut, err)
			}

			a, err := runRound(w, newEnv(7, true))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRound(w, newEnv(7, true))
			if err != nil {
				t.Fatal(err)
			}
			if a.Failed+a.ChecksFailed != 0 {
				t.Errorf("seed 7: %d operations failed: %v", a.Failed+a.ChecksFailed, a.Notes)
			}
			if a.Ops != b.Ops || a.Digest != b.Digest || !maps.Equal(a.Counts, b.Counts) {
				t.Errorf("two rounds with seed 7 differ: ops %d/%d digest %s/%s counts %v/%v",
					a.Ops, b.Ops, a.Digest, b.Digest, a.Counts, b.Counts)
			}
		})
	}
}

// TestRoundPerProcess runs an untraced run the way the pipeline gets it:
// every round in a process of its own, read back as JSON.
func TestRoundPerProcess(t *testing.T) {
	t.Setenv("BENCH_AS_MAIN", "1")
	w, _ := findWorkload("svc-hit")
	var out bytes.Buffer
	res, _ := runWorkload(&out, w, newEnv(1, true), execRound, 0, false, "")
	checkResult(t, res, endToEnd, true)
	if t.Failed() {
		t.Log(out.String())
	}
}

func checkResult(t *testing.T, res result, want []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s emitted in %q, declared in %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s = %v, must be positive", d.name, m.Value)
		}
	}
}

func TestSpanChecks(t *testing.T) {
	ok := []span{
		{ID: 0, Parent: noSpan, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 60},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 40, End: 90}, // overlaps a: parallel children
		{ID: 3, Parent: 1, Op: 1, Name: "c", Start: 20, End: 30},
	}
	if err := checkSpans(ok); err != nil {
		t.Fatal(err)
	}
	// root: 100 − |[10,90]| = 20; a: 50 − 10 = 40.
	if self := selfTimes(ok); self[0] != 20 || self[1] != 40 || self[2] != 50 || self[3] != 10 {
		t.Errorf("self times %v", self)
	}
	for name, mutate := range map[string]func([]span){
		"child outside parent": func(s []span) { s[3].End = 70 },
		"unfinished span":      func(s []span) { s[2].End = -1 },
		"two roots in one op":  func(s []span) { s[2].Parent = noSpan },
		"parent in another op": func(s []span) { s[3].Op = 2 },
	} {
		bad := append([]span(nil), ok...)
		mutate(bad)
		if checkSpans(bad) == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
