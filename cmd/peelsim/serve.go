package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"peel/internal/invariant"
	"peel/internal/service"
	"peel/internal/service/wire"
	"peel/internal/telemetry"
)

// serveMain implements `peelsim serve`: the control-plane daemon behind
// the same service.DaemonConfig construction path as cmd/peeld, so
// experiment workflows and the deployment binary cannot drift apart.
// Exit codes match realMain: 0 clean drain, 1 failure or invariant
// violation, 2 usage error.
func serveMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peelsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "listen address (default 127.0.0.1:7117)")
	k := fs.Int("k", 0, "fat-tree arity (default 8)")
	shards := fs.Int("shards", 0, "tree-cache shard count (default 16)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent tree computations (default 2×GOMAXPROCS)")
	cacheCap := fs.Int("cache-cap", 0, "cached trees per shard (default 4096; -1 = unbounded)")
	seed := fs.Int64("seed", 0, "install-latency model seed (default 1)")
	wireAddr := fs.String("wire-addr", "", "also serve the framed binary subscription protocol on this address")
	useTelemetry := fs.Bool("telemetry", false, "arm the telemetry sink for GET /v1/report")
	check := fs.Bool("check", false, "arm the invariant checker suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peelsim serve: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	if *useTelemetry {
		defer telemetry.Enable(telemetry.NewSink(0))()
	}
	var suite *invariant.Suite
	if *check {
		suite = invariant.NewSuite()
		defer invariant.Enable(suite)()
	}

	cfg := service.DaemonConfig{
		Addr:        *addr,
		K:           *k,
		Shards:      *shards,
		MaxInflight: *maxInflight,
		CacheCap:    *cacheCap,
		Seed:        *seed,
	}
	if *wireAddr != "" {
		cfg.Aux = wire.Hook(*wireAddr, wire.Options{}, func(addr string) {
			fmt.Fprintf(stdout, "peelsim serve: wire protocol listening on %s\n", addr)
		})
	}
	code := service.Serve(ctx, cfg, stdout, stderr)

	if suite != nil {
		fmt.Fprint(stdout, suite.Report())
		if suite.TotalViolations() > 0 {
			fmt.Fprintf(stderr, "peelsim serve: %d invariant violation(s)\n", suite.TotalViolations())
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

// signalContext is the context serve runs under when launched from the
// real process entry point: cancelled by SIGINT/SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
