// Command bench is the repository benchmark: six workloads that time what
// a user of this reproduction feels — regenerating a paper figure with the
// simulator, and asking peeld for trees (or being pushed them) over its
// real sockets — plus a traced pass that splits those numbers by layer.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains each choice.
//
//	go run ./bench                         every workload, untraced then traced
//	go run ./bench -workload svc-miss      one workload, both passes
//	go run ./bench -repeat 5 -summary      spread of every end-to-end metric
//
// The pipeline calls
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output: one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// The benchmark re-executes itself: every untraced round, and every
// workload's traced pass, runs in a process of its own, so peak RSS, CPU
// time and GC state do not leak between rounds or workloads, and a hang
// becomes a failed run instead of a stuck one.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when --seconds is not given.
const defaultSeconds = 15

// childTimeout bounds one run (its round processes, or its traced-pass
// process), under the pipeline's 180 s limit.
const childTimeout = 170 * time.Second

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is reported by every workload with --trace 0. An operation is
// a simulated collective (sim-*, latency = the round's wall time ÷ its
// collectives), a tree request (svc-hit, svc-miss, svc-evict) or a
// fail→heal cycle whose latency is chaos request sent → last expected
// push decoded (svc-push). Timings are medians over the run's rounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"lat_p50_us", "us", "lower", 0.15},
	{"lat_p90_us", "us", "lower", 0.20},
}

// perLayer is reported by every workload with --trace 1: the layer suite
// (probes.go) plus the counts of the workload's own traced rounds, which
// read 0 where a workload does not drive that layer.
var perLayer = []metricDef{
	{name: "topology.fattree16_build_us", unit: "us", better: "lower"},
	{name: "topology.fattree8_build_us", unit: "us", better: "lower"},
	{name: "topology.hetero_build_us", unit: "us", better: "lower"},
	{name: "topology.clone16_us", unit: "us", better: "lower"},
	{name: "routing.bfs16_us", unit: "us", better: "lower"},
	{name: "steiner.peel16_us", unit: "us", better: "lower"},
	{name: "steiner.peel16_allocs", unit: "count", better: "lower"},
	{name: "steiner.validate16_us", unit: "us", better: "lower"},
	{name: "steiner.symmetric8_us", unit: "us", better: "lower"},
	{name: "steiner.disjoint4_us", unit: "us", better: "lower"},
	{name: "steiner.repair_us", unit: "us", better: "lower"},
	{name: "steiner.repair_patched_ratio", unit: "ratio", better: "higher"},
	{name: "core.plan_group_us", unit: "us", better: "lower"},
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.run_self_s", unit: "s", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "netsim.new8_us", unit: "us", better: "lower"},
	{name: "netsim.unicast_hop_ns", unit: "ns", better: "lower"},
	{name: "netsim.mcast_copy_ns", unit: "ns", better: "lower"},
	{name: "netsim.events_per_hop", unit: "count", better: "lower"},
	{name: "netsim.allocs_per_hop", unit: "count", better: "lower"},
	{name: "netsim.ecn_marks", unit: "count", better: "lower"},
	{name: "netsim.pfc_pauses", unit: "count", better: "lower"},
	{name: "netsim.link_drops", unit: "count", better: "lower"},
	{name: "dcqcn.oncnp_tick_ns", unit: "ns", better: "lower"},
	{name: "collective.start_us.ring", unit: "us", better: "lower"},
	{name: "collective.start_us.tree", unit: "us", better: "lower"},
	{name: "collective.start_us.optimal", unit: "us", better: "lower"},
	{name: "collective.start_us.orca", unit: "us", better: "lower"},
	{name: "collective.start_us.peel", unit: "us", better: "lower"},
	{name: "collective.start_us.peel-cores", unit: "us", better: "lower"},
	{name: "collective.start_share", unit: "ratio", better: "lower"},
	{name: "experiments.cell_setup_share", unit: "ratio", better: "lower"},
	{name: "experiments.parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "experiments.allocs_per_event", unit: "count", better: "lower"},
	{name: "experiments.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "experiments.peel_cct_vs_bound", unit: "ratio", better: "higher"},
	{name: "experiments.span_s.fig7", unit: "s", better: "lower"},
	{name: "experiments.span_s.chaos", unit: "s", better: "lower"},
	{name: "experiments.span_s.striping", unit: "s", better: "lower"},
	{name: "experiments.span_s.hetero", unit: "s", better: "lower"},
	{name: "service.canonical_key_ns", unit: "ns", better: "lower"},
	{name: "service.gettree_hit_ns", unit: "ns", better: "lower"},
	{name: "service.treefor_miss_us", unit: "us", better: "lower"},
	{name: "service.treefor_below_cap_us", unit: "us", better: "lower"},
	{name: "service.treefor_evict_us", unit: "us", better: "lower"},
	{name: "service.evictions", unit: "count", better: "lower"},
	{name: "service.cache_entries", unit: "count", better: "higher"},
	{name: "service.create_group_us", unit: "us", better: "lower"},
	{name: "service.join_us", unit: "us", better: "lower"},
	{name: "service.faillink_us", unit: "us", better: "lower"},
	{name: "service.refresh_fanout_us", unit: "us", better: "lower"},
	{name: "service.patched", unit: "count", better: "higher"},
	{name: "service.fell_back", unit: "count", better: "lower"},
	{name: "daemon.healthz_rtt_us", unit: "us", better: "lower"},
	{name: "daemon.http_overhead_us", unit: "us", better: "lower"},
	{name: "daemon.tree_resp_bytes", unit: "B", better: "lower"},
	{name: "daemon.allocs_per_req", unit: "count", better: "lower"},
	{name: "wire.encode_tree_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_tree_ns", unit: "ns", better: "lower"},
	{name: "wire.tree_frame_bytes", unit: "B", better: "lower"},
	{name: "wire.ping_rtt_us", unit: "us", better: "lower"},
	{name: "wire.subscribe_snapshot_us", unit: "us", better: "lower"},
	{name: "wire.pushes", unit: "count", better: "lower"},
	{name: "wire.gaps", unit: "count", better: "lower"},
	{name: "wire.resyncs", unit: "count", better: "lower"},
	{name: "wire.dropped", unit: "count", better: "lower"},
	{name: "wire.shed", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.mirror_match", unit: "count", better: "higher"},
	{name: "bench.mirror_overhead_ratio", unit: "ratio", better: "lower"},
}

type workloadDef struct {
	name, why string
	run       func(*env) (*round, error)
}

var workloads = []workloadDef{
	{"sim-clean", "experiments.Fig5 on a failure-free fabric: nearly all time is sim/netsim event processing, none is tree construction", runSimClean},
	{"sim-degraded", "Fig7, ChaosStudy, StripingStudy, HeteroStudy: the same simulator layers on the failed-link, repair, striping and irregular-fabric paths", runSimDegraded},
	{"svc-hit", "GET tree for 512 resident groups, Zipf(1.3): working set far below the cache, so HTTP/JSON and the shard lookup do all the work", runSvcHit},
	{"svc-miss", "POST never-repeated 32-member sets on a 2%-failed fabric, cache below cap: every request peels, validates and encodes a tree", runSvcMiss},
	{"svc-evict", "POST never-repeated sets with the cache filled to its default cap: same endpoint as svc-miss, but eviction and the link index dominate", runSvcEvict},
	{"svc-push", "fail-then-heal cycles on links that subscribed trees use, timed to the last pushed repair: invalidate, refresh, Repair, wire encode, socket", runSvcPush},
}

// scale sizes one round of every workload. Work per round is fixed, so
// counts repeat exactly for a seed; a run repeats rounds until about
// --seconds of measured time have passed and reports medians over them.
type scale struct {
	quickSim                                   bool // start experiments from Quick(), not Defaults()
	cleanSamples, degradedSamples, warmSamples int  // experiments.Options.Samples
	cleanSeeds, degradedSeeds                  int  // sub-seeds per round: each runs every call at the sample count
	bigK, bigMembers                           int  // svc-hit, svc-miss, svc-push fabric and group size
	smallK, smallMembers                       int  // svc-evict
	hitGroups, hitRequests                     int
	missRequests                               int
	evictCap                                   int // per-shard cache cap; 0 = the daemon's default
	evictFill, evictRequests                   int
	pushGroups, pushSubs, pushCycles           int
	probeIters                                 int
}

var (
	// fullScale: each round measures 2–3.5 s on the 2-core reference box.
	// Samples stay above experiments.Quick().Samples, at and below which
	// the sweeps drop points.
	// evictFill is 72 000 distinct sets because 16 shards × 4 096 entries
	// fill unevenly: at 4 500 expected per shard every shard is at its cap.
	fullScale = scale{
		cleanSamples: 8, degradedSamples: 8, warmSamples: 2,
		cleanSeeds: 1, degradedSeeds: 3,
		bigK: 16, bigMembers: 32, smallK: 8, smallMembers: 8,
		hitGroups: 512, hitRequests: 60000,
		missRequests: 20000,
		evictFill:    72000, evictRequests: 14000,
		pushGroups: 256, pushSubs: 64, pushCycles: 1500,
		probeIters: 2000,
	}
	// smokeScale keeps every code path and shrinks every size, for the
	// tier-1 test.
	smokeScale = scale{
		quickSim:     true,
		cleanSamples: 1, degradedSamples: 1, warmSamples: 1,
		cleanSeeds: 2, degradedSeeds: 2,
		bigK: 8, bigMembers: 8, smallK: 4, smallMembers: 4,
		hitGroups: 16, hitRequests: 200,
		missRequests: 200,
		evictCap:     8, evictFill: 400, evictRequests: 200,
		pushGroups: 16, pushSubs: 8, pushCycles: 24,
		probeIters: 50,
	}
)

// env is what a round may depend on: the seed, the client count, the
// sizes, and the tracer (nil on untraced rounds). deadline is when the
// run it belongs to must have ended.
type env struct {
	seed     int64
	nproc    int
	smoke    bool
	scale    scale
	tr       *tracer
	deadline time.Time
}

func newEnv(seed int64, smoke bool) *env {
	e := &env{seed: seed, nproc: runtime.NumCPU(), smoke: smoke, scale: fullScale,
		deadline: time.Now().Add(childTimeout)}
	if smoke {
		e.scale = smokeScale
	}
	return e
}

// round is the outcome of one set-up plus one fixed batch of work. The
// fields are exported because a round run in its own process comes back
// as one line of JSON.
type round struct {
	Setup, Wall, CPU float64            // seconds
	PeakRSSMB        float64            // ru_maxrss of the process that ran the round
	Ops, Failed      int                //
	ChecksFailed     int                // whole-round checks (leaks, push totals) that did not hold
	Lat              []float64          // µs per completed operation
	Counts           map[string]float64 // must repeat exactly for a seed
	Times            map[string]float64 // diagnostic timings
	Digest           string             // simulated statistics, bit for bit
	Notes            []string           // first few failures
}

func newRound() *round {
	return &round{Counts: map[string]float64{}, Times: map[string]float64{}}
}

func (r *round) note(format string, args ...any) {
	if len(r.Notes) < 5 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// timed runs the measured region of a round from a collected heap.
func (r *round) timed(fn func()) {
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := nowNs()
	fn()
	r.Wall = secondsSince(t0)
	r.CPU = cpuSeconds() - cpu0
}

// failCheck records a failed whole-round check: it counts as one more
// attempted and failed operation, without touching the round's own ops.
func (r *round) failCheck(format string, args ...any) {
	r.ChecksFailed++
	r.note(format, args...)
}

// A roundFunc runs one round of a workload: in this process (runRound) or
// in a process of its own (execRound).
type roundFunc func(workloadDef, *env) (*round, error)

// runRound runs one round and holds it to the hygiene rule: the daemon,
// wire server and clients it started are gone when it returns.
func runRound(w workloadDef, e *env) (*round, error) {
	before := takeLeakSnapshot()
	r, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if err := before.check(); err != nil {
		r.failCheck("%v", err)
	}
	r.PeakRSSMB = peakRSSMB()
	return r, nil
}

// execRound re-executes the benchmark for one round and reads the round
// back from the last line of its output. Every untraced round gets a
// fresh process: its heap, GC state and peak RSS owe nothing to the
// rounds before it, so the run's medians are over independent samples. A
// process that outlives the run's deadline is killed and the round fails.
func execRound(w workloadDef, e *env) (*round, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), e.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "round", "-workload", w.name,
		"-seed", fmt.Sprint(e.seed), fmt.Sprintf("-smoke=%v", e.smoke))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("round process exceeded the run's %v and was killed", childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("round process: %w", err)
	}
	r := newRound()
	if err := json.Unmarshal(lastLine(out), r); err != nil {
		return nil, fmt.Errorf("round process printed no round: %w", err)
	}
	return r, nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// result is the line the pipeline reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's ru_maxrss (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// runWorkload is one run: rounds (each run by run) until their measured
// time is as near seconds as whole rounds get, then the metrics. With
// traced set, the rounds get half of seconds and alternate untraced and
// traced (their ratio is the tracing overhead), the layer suite follows,
// and the spans go to traceOut; run must then be runRound, because the
// spans are kept in this process.
func runWorkload(out io.Writer, w workloadDef, e *env, run roundFunc, seconds float64, traced bool, traceOut string) (result, []span) {
	var tr *tracer
	if traced {
		tr = newTracer()
		seconds /= 2
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(out, "  FAIL: "+format+"\n", args...)
	}
	var rounds []*round
	var plainWall, tracedWall []float64
	measured := 0.0
	// Another round is run while it brings the measured time nearer to
	// seconds: while what is missing exceeds half a round.
	for i := 0; len(rounds) == 0 || (traced && len(tracedWall) == 0) || seconds-measured > rounds[i-1].Wall/2; i++ {
		e.tr = nil
		if traced && i%2 == 1 {
			e.tr = tr
		}
		r, err := run(w, e)
		if err != nil {
			fail("round %d: %v", i, err)
			res.Attempted, res.Failed = 1, 1
			return res, nil
		}
		if e.tr != nil {
			tracedWall = append(tracedWall, r.Wall)
		} else {
			plainWall = append(plainWall, r.Wall)
		}
		rounds = append(rounds, r)
		measured += r.Wall
		res.Attempted += r.Ops + r.ChecksFailed
		res.Failed += r.Failed + r.ChecksFailed
		for _, n := range r.Notes {
			fail("round %d: %s", i, n)
		}
		if r0 := rounds[0]; r.Ops != r0.Ops || r.Digest != r0.Digest || !maps.Equal(r.Counts, r0.Counts) {
			fail("round %d is not a repeat of round 0: ops %d vs %d, digest %s vs %s, counts %v vs %v",
				i, r.Ops, r0.Ops, r.Digest, r0.Digest, r.Counts, r0.Counts)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e.tr = tr

	pick := func(f func(*round) float64) []float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return v
	}
	var p95, p99, worst float64
	e2e := map[string]float64{
		"setup_s":     median(pick(func(r *round) float64 { return r.Setup })),
		"wall_s":      median(pick(func(r *round) float64 { return r.Wall })),
		"cpu_s":       median(pick(func(r *round) float64 { return r.CPU })),
		"peak_rss_mb": median(pick(func(r *round) float64 { return r.PeakRSSMB })),
		"ops_per_s":   median(pick(func(r *round) float64 { return float64(r.Ops-r.Failed) / r.Wall })),
	}
	samples := 0
	for _, r := range rounds {
		sort.Float64s(r.Lat)
		samples += len(r.Lat)
		p95 = math.Max(p95, percentile(r.Lat, 95))
		p99 = math.Max(p99, percentile(r.Lat, 99))
		if len(r.Lat) > 0 {
			worst = math.Max(worst, r.Lat[len(r.Lat)-1])
		}
	}
	e2e["lat_p50_us"] = median(pick(func(r *round) float64 { return percentile(r.Lat, 50) }))
	e2e["lat_p90_us"] = median(pick(func(r *round) float64 { return percentile(r.Lat, 90) }))

	r0 := rounds[0]
	fmt.Fprintf(out, "== %s: seed %d, %d rounds of %d operations", w.name, e.seed, len(rounds), r0.Ops)
	if strings.HasPrefix(w.name, "svc-") {
		fmt.Fprintf(out, ", closed loop from %d connection(s), all traffic over loopback TCP", e.nproc)
	} else {
		fmt.Fprintf(out, ", %d sweep worker(s)", e.nproc)
	}
	fmt.Fprintln(out, " ==")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-14s %14.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	fmt.Fprintf(out, "  fail_ratio %g (%d of %d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(out, "  diagnostics, not gated: %d latency samples, worst round's p95 %.6g us, p99 %.6g us, max %.6g us\n", samples, p95, p99, worst)
	if r0.Digest != "" {
		fmt.Fprintf(out, "  result_digest %s\n", r0.Digest)
	}
	fmt.Fprintf(out, "  wall_s by round: %.4g\n", pick(func(r *round) float64 { return r.Wall }))
	printMap(out, "  counts:", r0.Counts)
	printMap(out, "  round-0 timings (s):", r0.Times)

	emit := func(d metricDef, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("%s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if !traced {
		for _, d := range endToEnd {
			emit(d, e2e[d.name])
		}
		return res, nil
	}

	layers := map[string]float64{
		"bench.trace_overhead_ratio": median(tracedWall)/median(plainWall) - 1,
	}
	if err := runSuite(e, layers); err != nil {
		fail("layer suite: %v", err)
	}
	for name, v := range rounds[len(rounds)-1].Counts {
		layers[name] = v
	}
	if err := checkSpans(tr.spans); err != nil {
		fail("spans: %v", err)
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, tr.spans); err != nil {
			fail("trace-out: %v", err)
		} else {
			fmt.Fprintf(out, "  %d spans written to %s\n", len(tr.spans), traceOut)
		}
	}
	fmt.Fprintf(out, "  per-layer (layer suite + this workload's counts):\n")
	for _, d := range perLayer {
		emit(d, layers[d.name])
		fmt.Fprintf(out, "    %-36s %14.6g %s\n", d.name, layers[d.name], d.unit)
	}
	self := map[string]float64{}
	for name, lt := range byLayer(tr.spans) {
		self[name] = lt.Self
	}
	printMap(out, "  self time by span name (s):", self)
	return res, tr.spans
}

func printMap(out io.Writer, label string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(out, label)
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%.10g", k, m[k])
	}
	fmt.Fprintln(out)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all of "+workloadNames()+")")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured time per run: rounds of fixed work repeat until their total is as near it as whole rounds get")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: one then the other")
		traceOut = flag.String("trace-out", "", "file for the traced pass's spans (default .bench_build/spans-<workload>.jsonl under the working directory)")
		repeat   = flag.Int("repeat", 1, "run the untraced pass this many times")
		summary  = flag.Bool("summary", false, "after -repeat, print median, quartiles and spread of every end-to-end metric against its bound")
		smoke    = flag.Bool("smoke", false, "tiny sizes (what the tier-1 test runs)")
		child    = flag.String("child", "", "internal: \"round\" runs one round in this process and prints it, \"traced\" the whole traced pass")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	names := strings.Split(workloadNames(), " ")
	if *workload != "" {
		if _, ok := findWorkload(*workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		names = []string{*workload}
	}

	switch *child {
	case "round":
		w, _ := findWorkload(names[0])
		r, err := runRound(w, newEnv(*seed, *smoke))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(r) // numbers, strings and maps of them cannot fail to marshal
		fmt.Printf("%s\n", line)
		return
	case "traced":
		w, _ := findWorkload(names[0])
		out := bufio.NewWriter(os.Stdout)
		res, _ := runWorkload(out, w, newEnv(*seed, *smoke), runRound, *seconds, true, *traceOut)
		printResult(out, res)
		out.Flush()
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	if *summary || *repeat > 1 {
		passes = []int{0}
	}
	ok := true
	values := map[string][]float64{} // "workload metric" → one value per repeat
	for rep := 0; rep < *repeat; rep++ {
		for _, pass := range passes {
			for _, name := range names {
				var res result
				if pass == 0 {
					w, _ := findWorkload(name)
					res, _ = runWorkload(os.Stdout, w, newEnv(*seed, *smoke), execRound, *seconds, false, "")
					printResult(os.Stdout, res)
				} else {
					out := *traceOut
					if out == "" {
						out = filepath.Join(".bench_build", "spans-"+name+".jsonl")
					}
					res = runTraced(name, *seed, *seconds, out, *smoke)
				}
				ok = ok && res.Correct
				for m, v := range res.Metrics {
					values[name+" "+m] = append(values[name+" "+m], v.Value)
				}
			}
		}
	}
	if *summary {
		printSummary(os.Stdout, names, values)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " ")
}

// printResult writes the line the pipeline reads.
func printResult(out io.Writer, res result) {
	line, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintf(out, "%s\n", line)
}

// runTraced re-executes the benchmark for one workload's traced pass,
// copies its output through, and returns its result line. A child that
// outlives childTimeout is killed and reported as one failed operation, so a
// livelocked sweep ends the run instead of hanging it.
func runTraced(name string, seed int64, seconds float64, traceOut string, smoke bool) result {
	failed := result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return failed
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "traced", "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace-out", traceOut, fmt.Sprintf("-smoke=%v", smoke))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res result
	if json.Unmarshal(lastLine(buf.Bytes()), &res) == nil && res.Attempted > 0 {
		return res
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v and was killed\n", name, childTimeout)
	} else {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, runErr)
	}
	printResult(os.Stdout, failed)
	return failed
}

// printSummary reports, per workload and end-to-end metric, the median,
// the quartiles as Python's statistics.quantiles(n=4) computes them, and
// their distance as a share of the median, against the metric's bound.
func printSummary(out io.Writer, names []string, values map[string][]float64) {
	fmt.Fprintf(out, "\n%-13s %-12s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v := values[name+" "+d.name]
			if len(v) < 2 {
				fmt.Fprintf(out, "%-13s %-12s %3d (needs -repeat 2 or more)\n", name, d.name, len(v))
				continue
			}
			q1, _, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			verdict := ""
			if d.name != "setup_s" && spread > d.bound {
				verdict = "  spread exceeds bound"
			}
			fmt.Fprintf(out, "%-13s %-12s %3d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				name, d.name, len(v), med, q1, q3, spread*100, d.bound*100, verdict)
		}
	}
}
