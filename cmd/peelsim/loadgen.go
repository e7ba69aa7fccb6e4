package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"peel/internal/invariant"
	"peel/internal/service"
	"peel/internal/service/loadgen"
	"peel/internal/service/wire"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// loadgenMain implements `peelsim loadgen`: a single-node control-plane
// churn run with an optional propagation probe. With -propagation push it
// starts an in-process wire server, subscribes wire clients, and reports
// the flap-to-receipt latency distribution of server-pushed tree
// updates; with -propagation poll it runs the GetTree polling baseline
// at -poll-interval for a directly comparable number. The propagation
// stats land under "propagation" in the JSON output. Exit codes: 0
// clean, 1 failed ops or invariant violation, 2 usage.
func loadgenMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peelsim loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 8, "fat-tree arity")
	groups := fs.Int("groups", 64, "pre-created group count")
	groupSize := fs.Int("group-size", 8, "hosts per group")
	ops := fs.Int("ops", 20000, "total operation budget")
	workers := fs.Int("workers", 1, "closed-loop workers (1 = deterministic)")
	seed := fs.Int64("seed", 1, "workload seed")
	flapEvery := fs.Int("flap-every", 200, "fail a link every N worker-0 ops (0 = off)")
	pace := fs.Duration("pace", 0, "sleep between ops on every worker (paced load; propagation probes need it)")
	propagation := fs.String("propagation", "", "measure update-propagation latency: push (wire subscribers) or poll (GetTree baseline)")
	subscribers := fs.Int("subscribers", 4, "propagation subscribers/pollers")
	groupsEach := fs.Int("groups-each", 4, "groups tracked per subscriber")
	pollInterval := fs.Duration("poll-interval", 5*time.Millisecond, "GetTree cadence for -propagation poll")
	check := fs.Bool("check", false, "arm the invariant checker suite")
	telemetryOut := fs.String("telemetry", "", "arm the telemetry sink and write the run-report to file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peelsim loadgen: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *k < 2 || *k%2 != 0 {
		fmt.Fprintf(stderr, "peelsim loadgen: fat-tree arity %d must be even and >= 2\n", *k)
		return 2
	}
	if *propagation != "" && *propagation != "push" && *propagation != "poll" {
		fmt.Fprintf(stderr, "peelsim loadgen: -propagation %q (want \"push\" or \"poll\")\n", *propagation)
		return 2
	}
	if *propagation != "" && *pace == 0 {
		// A saturating closed loop starves the push pipeline's goroutine
		// handoffs and measures scheduler queuing, not propagation.
		*pace = 200 * time.Microsecond
	}

	var sink *telemetry.Sink
	if *telemetryOut != "" {
		sink = telemetry.NewSink(0)
		defer telemetry.Enable(sink)()
	}
	var suite *invariant.Suite
	if *check {
		suite = invariant.NewSuite()
		defer invariant.Enable(suite)()
	}

	g := topology.FatTree(*k)
	svc := service.New(g, service.Options{})
	defer svc.Close()

	gen, err := loadgen.New(svc, svc, workload.NewCluster(g, 1), loadgen.Config{
		Groups:    *groups,
		GroupSize: *groupSize,
		Workers:   *workers,
		Ops:       *ops,
		Seed:      *seed,
		FlapEvery: *flapEvery,
		Pace:      *pace,
	})
	if err != nil {
		fmt.Fprintf(stderr, "peelsim loadgen: %v\n", err)
		return 1
	}

	if *propagation != "" {
		cfg := loadgen.PropagationConfig{
			Mode:         *propagation,
			Subscribers:  *subscribers,
			GroupsEach:   *groupsEach,
			PollInterval: *pollInterval,
		}
		if *propagation == "push" {
			srv := wire.NewServer(svc, wire.Options{})
			var addr string
			if err := srv.ListenAndServe("127.0.0.1:0", func(a string) { addr = a }); err != nil {
				fmt.Fprintf(stderr, "peelsim loadgen: wire server: %v\n", err)
				return 1
			}
			defer srv.Close()
			cfg.WireAddr = addr
		}
		if err := gen.ArmPropagation(cfg); err != nil {
			fmt.Fprintf(stderr, "peelsim loadgen: %v\n", err)
			return 1
		}
	}

	st := gen.Run(ctx)
	out := struct {
		Config struct {
			K           int    `json:"k"`
			Propagation string `json:"propagation,omitempty"`
		} `json:"config"`
		Stats loadgen.Stats `json:"stats"`
	}{Stats: st}
	out.Config.K = *k
	out.Config.Propagation = *propagation
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "peelsim loadgen: %v\n", err)
		return 1
	}

	code := 0
	if st.Errors != 0 {
		fmt.Fprintf(stderr, "peelsim loadgen: %d failed client operations\n", st.Errors)
		code = 1
	}
	if sink != nil {
		w := stdout.(io.Writer)
		if *telemetryOut != "-" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				fmt.Fprintf(stderr, "peelsim loadgen: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := sink.Report("peelsim-loadgen").WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "peelsim loadgen: %v\n", err)
			return 1
		}
	}
	if suite != nil {
		fmt.Fprint(stdout, suite.Report())
		if suite.TotalViolations() > 0 {
			fmt.Fprintf(stderr, "peelsim loadgen: %d invariant violation(s)\n", suite.TotalViolations())
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}
