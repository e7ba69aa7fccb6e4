// Command peelsim regenerates the paper's tables and figures from the
// simulation and analytic models in this repository.
//
// Usage:
//
//	peelsim [flags] <experiment> [<experiment>...]
//	peelsim all
//	peelsim watch -addr A -groups g0,g1 [-count N] [-timeout D] [-reconnect]
//	peelsim loadgen [-ops N] [-flap-every N] [-propagation push|poll] ...
//	peelsim loadgen -replicas N [-kill-every N] [-ops N] [-flap-every N] ...
//
// The watch subcommand subscribes to groups over a daemon's wire protocol
// (peeld -wire-addr) and prints one JSON line per pushed tree update. The
// loadgen subcommand runs a control-plane churn workload with scripted
// link flaps and reports loadgen stats as JSON (deterministic at
// -workers 1; add -check to gate on the invariant suite). By default it
// drives one in-process service, and its -propagation push|poll modes
// measure flap-to-client tree-update latency over the wire protocol
// versus the GetTree polling baseline. With -replicas N it drives N
// replicas behind the in-process federation router instead, -kill-every
// adds replica kill/restart to the chaos, and the final fleet census
// joins the output. The daemon itself is cmd/peeld.
//
// Experiments: fig1 fig3 fig4 fig5 fig6 fig7 state guard approx bandwidth
// fragmentation deployment multipath allgather loss rail isolation chaos
// striping reconfig hetero
//
// Flags:
//
//	-samples N     collectives per configuration point (default 40)
//	-seed S        workload/simulation seed (default 1)
//	-frames F      simulation frames per message (default 128)
//	-load L        offered load for Poisson workloads (default 0.30)
//	-quick         reduced-fidelity settings (tests/smoke)
//	-csv           emit comma-separated values instead of aligned tables
//	-check         run with the invariant checker suite armed; any
//	               violation is reported and exits non-zero
//	-chaosfrac F   single mid-flight failure fraction for the chaos experiment
//	-workers N     concurrent simulation runs per sweep, and concurrent
//	               experiments when several are requested (default GOMAXPROCS;
//	               1 = serial, the determinism oracle)
//	-cpuprofile F  write a CPU profile to F
//	-memprofile F  write a heap profile to F at exit
//	-telemetry F       arm the telemetry sink; write the JSON run-report to F
//	                   ("-" = stdout) and append a summary table
//	-telemetry-csv F   write the per-link CSV time series to F (arms the
//	                   sampler; forces -workers 1)
//	-trace-dump F      write the flight-recorder dump to F at exit ("-" = stderr)
//	-trace-frames      record per-frame enqueue/dequeue trace events
//	-trace-events N    flight recorder ring capacity (default 4096)
//
// With telemetry armed, the flight recorder is also dumped to stderr
// automatically when an invariant violation (-check) or a watchdog
// abandonment occurs.
//
// Results are byte-identical for any -workers value: every (scheme, X)
// point is an independent deterministic simulation collected by index.
// Each experiment's wall time goes to stderr, so stdout is deterministic.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"peel/internal/experiments"
	"peel/internal/invariant"
	"peel/internal/sim"
	"peel/internal/telemetry"
)

var runners = map[string]func(experiments.Options) (*experiments.Result, error){
	"fig1":          experiments.Fig1,
	"fig3":          experiments.Fig3,
	"fig4":          experiments.Fig4,
	"fig5":          experiments.Fig5,
	"fig6":          experiments.Fig6,
	"fig7":          experiments.Fig7,
	"state":         experiments.StateTable,
	"guard":         experiments.GuardAblation,
	"approx":        experiments.ApproxStudy,
	"bandwidth":     experiments.BandwidthStudy,
	"fragmentation": experiments.FragmentationStudy,
	"deployment":    experiments.DeploymentStudy,
	"multipath":     experiments.MultipathStudy,
	"allgather":     experiments.AllGatherStudy,
	"loss":          experiments.LossStudy,
	"rail":          experiments.RailStudy,
	"isolation":     experiments.IsolationStudy,
	"chaos":         experiments.ChaosStudy,
	"striping":      experiments.StripingStudy,
	"reconfig":      experiments.ReconfigStudy,
	"hetero":        experiments.HeteroStudy,
}

// order fixes the "all" execution sequence (cheap analytic ones first).
var order = []string{
	"state", "fig1", "fig3", "approx", "fragmentation", "bandwidth",
	"fig7", "guard", "deployment", "multipath", "allgather", "striping", "loss", "rail", "isolation", "hetero", "reconfig", "chaos", "fig4", "fig6", "fig5",
}

// subcommands run under a context cancelled by SIGINT/SIGTERM.
var subcommands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) int{
	"loadgen": loadgenMain,
	"watch":   watchMain,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with the process boundary factored out so tests can
// drive the full flag-parse → run → exit-code path in-process. Exit codes:
// 0 success, 1 experiment failure or invariant violation, 2 usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			return sub(ctx, args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("peelsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	samples := fs.Int("samples", 0, "collectives per configuration point")
	seed := fs.Int64("seed", 0, "workload/simulation seed")
	frames := fs.Int64("frames", 0, "simulation frames per message")
	load := fs.Float64("load", 0, "offered load for Poisson workloads")
	quick := fs.Bool("quick", false, "reduced-fidelity settings")
	csv := fs.Bool("csv", false, "CSV output")
	check := fs.Bool("check", false, "arm the invariant checker suite; violations exit non-zero")
	chaosFrac := fs.Float64("chaosfrac", 0, "single mid-flight failure fraction for the chaos experiment (0 = sweep)")
	workers := fs.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to file")
	memprofile := fs.String("memprofile", "", "write heap profile to file at exit")
	telemetryOut := fs.String("telemetry", "", "arm the telemetry sink and write the JSON run-report to file (\"-\" = stdout); also appends a summary table")
	telemetryCSV := fs.String("telemetry-csv", "", "write the per-link CSV time series to file; arms the sampler and forces -workers 1 (run IDs are assignment-ordered)")
	traceDump := fs.String("trace-dump", "", "write the flight-recorder dump to file at exit (\"-\" = stderr)")
	traceFrames := fs.Bool("trace-frames", false, "record per-frame enqueue/dequeue trace events (floods the ring; short runs only)")
	traceEvents := fs.Int("trace-events", 0, "flight recorder capacity in events (0 = 4096)")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if err := validateFlags(*samples, *workers, *load, *chaosFrac); err != nil {
		fmt.Fprintf(stderr, "peelsim: %v\n", err)
		return 2
	}
	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}
	if *samples > 0 {
		opts.Samples = *samples
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *frames > 0 {
		opts.FramesPerMessage = *frames
	}
	if *load > 0 {
		opts.Load = *load
	}
	if *chaosFrac > 0 {
		opts.ChaosFrac = *chaosFrac
	}
	opts.Workers = *workers

	// Any telemetry/trace flag arms the sink; experiments publish into it
	// as they run and the exporters fire after the last one.
	var sink *telemetry.Sink
	if *telemetryOut != "" || *telemetryCSV != "" || *traceDump != "" || *traceFrames {
		sink = telemetry.NewSink(*traceEvents)
		sink.Recorder().SetFrameEvents(*traceFrames)
		defer telemetry.Enable(sink)()
	}
	if *telemetryCSV != "" {
		// Time-series rows are labeled with sink-assigned run IDs, which
		// follow run start order; serialize runs so the CSV is stable.
		opts.Workers = 1
		opts.TelemetrySample = telemetryCSVInterval
	}

	var suite *invariant.Suite
	if *check {
		suite = invariant.NewSuite()
		defer invariant.Enable(suite)()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "peelsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "peelsim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = order
	}
	failed := run(names, opts, *csv, stdout, stderr)

	if sink != nil {
		if err := exportTelemetry(sink, strings.Join(names, ","), *telemetryOut, *telemetryCSV, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "peelsim: %v\n", err)
			failed++
		}
	}
	if err := dumpTrace(sink, suite, *traceDump, stderr); err != nil {
		fmt.Fprintf(stderr, "peelsim: %v\n", err)
		failed++
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "peelsim: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "peelsim: %v\n", err)
			return 1
		}
		f.Close()
	}
	return exitCode(failed, suite, stdout, stderr)
}

// validateFlags rejects flag values outside their domains before any
// simulation starts (a usage error, exit code 2).
func validateFlags(samples, workers int, load, chaosFrac float64) error {
	switch {
	case samples < 0:
		return fmt.Errorf("-samples %d must be non-negative", samples)
	case workers < 0:
		return fmt.Errorf("-workers %d must be non-negative", workers)
	case load < 0 || load > 1:
		return fmt.Errorf("-load %v outside [0,1]", load)
	case chaosFrac < 0 || chaosFrac > 1:
		return fmt.Errorf("-chaosfrac %v outside [0,1]", chaosFrac)
	}
	return nil
}

// exitCode folds experiment failures and invariant verdicts into the
// process exit status; with -check it always prints the suite report.
func exitCode(failed int, suite *invariant.Suite, stdout, stderr io.Writer) int {
	if suite != nil {
		fmt.Fprint(stdout, suite.Report())
		if suite.TotalViolations() > 0 {
			fmt.Fprintf(stderr, "peelsim: %d invariant violation(s)\n", suite.TotalViolations())
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// run executes the requested experiments — concurrently when the worker
// budget allows — and prints each result in request order as soon as all
// earlier ones are out. Returns the number of failures.
func run(names []string, opts experiments.Options, csv bool, stdout, stderr io.Writer) int {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		out  string // rendered result (stdout)
		errs string // error text (stderr)
		took time.Duration
	}
	outs := make([]outcome, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)
	for i, name := range names {
		go func(i int, name string) {
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			runFn, ok := runners[strings.ToLower(name)]
			if !ok {
				outs[i].errs = fmt.Sprintf("peelsim: unknown experiment %q\n", name)
				return
			}
			start := time.Now()
			res, err := runFn(opts)
			outs[i].took = time.Since(start)
			if err != nil {
				outs[i].errs = fmt.Sprintf("peelsim: %s: %v\n", name, err)
				return
			}
			if csv {
				outs[i].out = renderCSV(res)
			} else {
				outs[i].out = res.Render()
			}
		}(i, name)
	}
	failed := 0
	for i, name := range names {
		<-done[i]
		if outs[i].errs != "" {
			fmt.Fprint(stderr, outs[i].errs)
			failed++
			continue
		}
		// Wall time goes to stderr so stdout stays deterministic.
		fmt.Fprint(stdout, outs[i].out, "\n")
		fmt.Fprintf(stderr, "(%s took %v)\n", name, outs[i].took.Round(time.Millisecond))
	}
	return failed
}

func renderCSV(r *experiments.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", r.Name)
	emit := func(kind string, ss []telemetry.Series) {
		for _, s := range ss {
			fmt.Fprintf(&b, "%s,%s", kind, s.Label)
			for i := range r.X {
				if i < len(s.Y) {
					fmt.Fprintf(&b, ",%g", s.Y[i])
				} else {
					b.WriteString(",")
				}
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "x,%s", r.XLabel)
	for _, x := range r.X {
		fmt.Fprintf(&b, ",%g", x)
	}
	b.WriteString("\n")
	emit("mean", r.Mean)
	emit("p99", r.P99)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// telemetryCSVInterval is the simulated sampling period -telemetry-csv
// arms: fine enough to resolve watchdog-scale dynamics (100 µs ticks),
// coarse enough that a full chaos run stays in the tens of rows per link.
const telemetryCSVInterval = 100 * sim.Microsecond

// openOut resolves an output path: "-" is the given default stream (with
// a no-op close), anything else is created as a file.
func openOut(path string, dash io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return dash, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// exportTelemetry writes the JSON run-report (and, when requested, the
// CSV time series), then appends the human-readable summary table to the
// experiment output.
func exportTelemetry(sink *telemetry.Sink, label, jsonPath, csvPath string, stdout, stderr io.Writer) error {
	rep := sink.Report(label)
	if jsonPath != "" {
		w, closeOut, err := openOut(jsonPath, stdout)
		if err != nil {
			return err
		}
		err = rep.WriteJSON(w)
		if cerr := closeOut(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("telemetry report: %w", err)
		}
	}
	if csvPath != "" {
		w, closeOut, err := openOut(csvPath, stdout)
		if err != nil {
			return err
		}
		err = sink.WriteCSV(w)
		if cerr := closeOut(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("telemetry csv: %w", err)
		}
	}
	fmt.Fprint(stdout, rep.SummaryTable())
	return nil
}

// dumpTrace writes the flight recorder when explicitly requested
// (-trace-dump) — and automatically to stderr when the run went wrong:
// an invariant violation with -check armed, or a telemetry abort
// (watchdog abandonment). The dump is the black box the recorder exists
// for; a clean run without -trace-dump writes nothing.
func dumpTrace(sink *telemetry.Sink, suite *invariant.Suite, path string, stderr io.Writer) error {
	if sink == nil {
		return nil
	}
	wrong := suite != nil && suite.TotalViolations() > 0
	if reason, ok := sink.Aborted(); ok {
		fmt.Fprintf(stderr, "peelsim: telemetry abort: %s\n", reason)
		wrong = true
	}
	if path == "" {
		if !wrong {
			return nil
		}
		_, err := sink.Recorder().WriteTo(stderr)
		return err
	}
	w, closeOut, err := openOut(path, stderr)
	if err != nil {
		return err
	}
	_, err = sink.Recorder().WriteTo(w)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	return nil
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintf(stderr, "usage: peelsim [flags] <experiment>...\n       peelsim loadgen [flags]\n       peelsim watch [flags]\nexperiments: %s all\n", strings.Join(order, " "))
	fs.PrintDefaults()
}
