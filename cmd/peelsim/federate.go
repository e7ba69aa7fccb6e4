package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"peel/internal/invariant"
	"peel/internal/service/federation"
	"peel/internal/service/loadgen"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// federateMain implements `peelsim federate`: an in-process federated
// chaos run — N replicas behind the router, a mixed control-plane
// workload, scripted link flaps AND replica kill/restart — reported as
// JSON stats plus the final fleet census. With -workers 1 the run is
// fully deterministic (op-count-keyed chaos schedules, synchronous
// failover mode), which is what the CI federation-smoke job pins.
// Exit codes: 0 clean, 1 failed ops or invariant violation, 2 usage.
func federateMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peelsim federate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 8, "fat-tree arity")
	replicas := fs.Int("replicas", 3, "in-process replica count")
	groups := fs.Int("groups", 64, "pre-created group count")
	groupSize := fs.Int("group-size", 8, "hosts per group")
	ops := fs.Int("ops", 20000, "total operation budget")
	workers := fs.Int("workers", 1, "closed-loop workers (1 = deterministic)")
	seed := fs.Int64("seed", 1, "workload seed")
	flapEvery := fs.Int("flap-every", 200, "fail a link every N worker-0 ops (0 = off)")
	killEvery := fs.Int("kill-every", 500, "kill a replica every N worker-0 ops (0 = off)")
	check := fs.Bool("check", false, "arm the invariant checker suite")
	telemetryOut := fs.String("telemetry", "", "arm the telemetry sink and write the run-report to file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peelsim federate: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *k < 2 || *k%2 != 0 {
		fmt.Fprintf(stderr, "peelsim federate: fat-tree arity %d must be even and >= 2\n", *k)
		return 2
	}
	if *replicas < 1 {
		fmt.Fprintf(stderr, "peelsim federate: need at least one replica\n")
		return 2
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

	fed, err := federation.New(federation.Config{
		NewGraph: func() *topology.Graph { return topology.FatTree(*k) },
		Replicas: *replicas,
		// Synchronous mode: kills and restarts flip routing state at the
		// op boundary that scripted them, so a single-worker run replays
		// byte-identically.
		HealthInterval: 0,
	})
	if err != nil {
		fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
		return 1
	}
	defer fed.Close()

	gen, err := loadgen.New(fed, fed, workload.NewCluster(fed.Oracle().Graph(), 1), loadgen.Config{
		Groups:    *groups,
		GroupSize: *groupSize,
		Workers:   *workers,
		Ops:       *ops,
		Seed:      *seed,
		FlapEvery: *flapEvery,
		KillEvery: *killEvery,
	})
	if err != nil {
		fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
		return 1
	}
	if *killEvery > 0 {
		if err := gen.ArmReplicaChaos(fed); err != nil {
			fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
			return 1
		}
	}

	st := gen.Run(ctx)
	out := struct {
		Config struct {
			K        int `json:"k"`
			Replicas int `json:"replicas"`
		} `json:"config"`
		Stats  loadgen.Stats         `json:"stats"`
		Census federation.CensusInfo `json:"census"`
	}{Stats: st, Census: fed.Census()}
	out.Config.K = *k
	out.Config.Replicas = *replicas
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
		return 1
	}

	code := 0
	if st.Errors != 0 {
		fmt.Fprintf(stderr, "peelsim federate: %d failed client operations\n", st.Errors)
		code = 1
	}
	if sink != nil {
		fed.RefreshGauges()
		w := stdout.(io.Writer)
		if *telemetryOut != "-" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := sink.Report("peelsim-federate").WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "peelsim federate: %v\n", err)
			return 1
		}
	}
	if suite != nil {
		fmt.Fprint(stdout, suite.Report())
		if suite.TotalViolations() > 0 {
			fmt.Fprintf(stderr, "peelsim federate: %d invariant violation(s)\n", suite.TotalViolations())
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}
