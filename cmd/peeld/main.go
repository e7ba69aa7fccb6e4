// Command peeld runs the multicast control-plane service as a long-lived
// daemon: it owns a fat-tree fabric, serves the group-lifecycle HTTP/JSON
// API (create/join/leave/tree/delete plus chaos, stats, and run-report
// endpoints), and drains gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	peeld [flags]                        single-node service
//	peeld -router [flags]                federation router
//	peeld -replica NAME -join URL ...    replica that self-registers with a router
//
// Flags:
//
//	-addr A             listen address (default 127.0.0.1:7117; use :0 for ephemeral)
//	-k K                fat-tree arity of the owned fabric (default 8)
//	-shards N           tree-cache shard count, rounded to a power of two (default 16)
//	-max-inflight N     concurrent tree computations before 429 (default 2×GOMAXPROCS)
//	-cache-cap N        cached trees per shard, LRU-evicted (default 4096; -1 = unbounded)
//	-seed S             controller install-latency model seed (default 1)
//	-request-timeout D  per-request deadline; slow peels answer 504 (default 10s; negative disables)
//	-wire-addr A        also serve the framed binary subscription protocol
//	                    (internal/service/wire) on A; clients SUBSCRIBE once and
//	                    receive pushed tree updates instead of polling (single-node only)
//	-telemetry          arm the telemetry sink (GET /v1/report serves the JSON run-report)
//	-check              arm the invariant checker suite; violations print at exit
//	                    and force a non-zero status
//
// Federation flags:
//
//	-router             serve as a federation router: own the group registry,
//	                    consistent-hash tree requests over the replica fleet,
//	                    replicate failure events, health-check and fail over
//	-replicas N         router: in-process replicas to start with (default 0;
//	                    HTTP replicas join at runtime via -replica/-join)
//	-health-interval D  router: replica health-probe period (default 1s)
//	-replica NAME       run single-node and self-register with a router under
//	                    NAME once the listener is up (requires -join)
//	-join URL           the router base URL to register with (requires -replica)
//
// A 3-replica local federation:
//
//	peeld -router -addr 127.0.0.1:7117 &
//	peeld -replica r0 -join http://127.0.0.1:7117 -addr 127.0.0.1:7118 &
//	peeld -replica r1 -join http://127.0.0.1:7117 -addr 127.0.0.1:7119 &
//	peeld -replica r2 -join http://127.0.0.1:7117 -addr 127.0.0.1:7120 &
//
// The same wiring is reachable as `peelsim serve` / `peelsim federate`
// for experiment workflows; both build through service.DaemonConfig.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peel/internal/invariant"
	"peel/internal/service"
	"peel/internal/service/federation"
	"peel/internal/service/wire"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with the process boundary factored out so tests can
// drive the flag-parse → serve → drain path in-process. Exit codes:
// 0 clean drain, 1 serve failure or invariant violation, 2 usage error.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peeld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "listen address (default 127.0.0.1:7117)")
	k := fs.Int("k", 0, "fat-tree arity (default 8)")
	shards := fs.Int("shards", 0, "tree-cache shard count (default 16)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent tree computations (default 2×GOMAXPROCS)")
	cacheCap := fs.Int("cache-cap", 0, "cached trees per shard (default 4096; -1 = unbounded)")
	seed := fs.Int64("seed", 0, "install-latency model seed (default 1)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline (default 10s; negative disables)")
	wireAddr := fs.String("wire-addr", "", "also serve the framed binary subscription protocol on this address (single-node only)")
	useTelemetry := fs.Bool("telemetry", false, "arm the telemetry sink for GET /v1/report")
	check := fs.Bool("check", false, "arm the invariant checker suite")
	router := fs.Bool("router", false, "serve as a federation router")
	replicas := fs.Int("replicas", 0, "router: in-process replicas to start with")
	healthInterval := fs.Duration("health-interval", time.Second, "router: replica health-probe period")
	replicaName := fs.String("replica", "", "self-register with a federation router under this name (requires -join)")
	joinURL := fs.String("join", "", "router base URL to register with (requires -replica)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peeld: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *router && (*replicaName != "" || *joinURL != "") {
		fmt.Fprintf(stderr, "peeld: -router and -replica/-join are mutually exclusive\n")
		return 2
	}
	if (*replicaName == "") != (*joinURL == "") {
		fmt.Fprintf(stderr, "peeld: -replica and -join must be set together\n")
		return 2
	}
	if *wireAddr != "" && *router {
		fmt.Fprintf(stderr, "peeld: -wire-addr requires single-node mode (not -router)\n")
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

	var code int
	if *router {
		code = serveRouter(ctx, routerConfig{
			addr:           *addr,
			k:              *k,
			replicas:       *replicas,
			healthInterval: *healthInterval,
			requestTimeout: *reqTimeout,
			opts: service.Options{
				Shards:      *shards,
				MaxInflight: *maxInflight,
				CacheCap:    *cacheCap,
				Seed:        *seed,
			},
		}, stdout, stderr)
	} else {
		cfg := service.DaemonConfig{
			Addr:           *addr,
			K:              *k,
			Shards:         *shards,
			MaxInflight:    *maxInflight,
			CacheCap:       *cacheCap,
			Seed:           *seed,
			RequestTimeout: *reqTimeout,
		}
		if *wireAddr != "" {
			cfg.Aux = wire.Hook(*wireAddr, wire.Options{}, func(addr string) {
				fmt.Fprintf(stdout, "peeld: wire protocol listening on %s\n", addr)
			})
		}
		if *replicaName != "" {
			name, join := *replicaName, *joinURL
			cfg.OnReady = func(addr string) {
				go selfRegister(ctx, join, name, "http://"+addr, stdout, stderr)
			}
		}
		code = service.Serve(ctx, cfg, stdout, stderr)
	}

	if suite != nil {
		fmt.Fprint(stdout, suite.Report())
		if suite.TotalViolations() > 0 {
			fmt.Fprintf(stderr, "peeld: %d invariant violation(s)\n", suite.TotalViolations())
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

type routerConfig struct {
	addr           string
	k              int
	replicas       int
	healthInterval time.Duration
	requestTimeout time.Duration
	opts           service.Options
}

// serveRouter runs the federation-router daemon: the stock HTTP handler
// set over a federation.Federation instead of a single service.
func serveRouter(ctx context.Context, rc routerConfig, stdout, stderr io.Writer) int {
	k := rc.k
	if k == 0 {
		k = 8
	}
	if k < 2 || k%2 != 0 {
		fmt.Fprintf(stderr, "peeld: fat-tree arity %d must be even and >= 2\n", k)
		return 1
	}
	fed, err := federation.New(federation.Config{
		NewGraph:       func() *topology.Graph { return topology.FatTree(k) },
		Replicas:       rc.replicas,
		ServiceOpts:    rc.opts,
		HealthInterval: rc.healthInterval,
	})
	if err != nil {
		fmt.Fprintf(stderr, "peeld: %v\n", err)
		return 1
	}
	d := service.NewDaemonFor(fed, service.DaemonConfig{
		Addr:           rc.addr,
		RequestTimeout: rc.requestTimeout,
		OnReady: func(addr string) {
			fmt.Fprintf(stdout, "peeld: federation router listening on %s (k=%d fabric, %d in-process replicas, probe every %v)\n",
				addr, k, rc.replicas, rc.healthInterval)
		},
	})
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "peeld: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "peeld: drained cleanly\n")
	return 0
}

// selfRegister announces this replica to the federation router, retrying
// with backoff until the router answers (it may still be booting) or ctx
// ends. The router probes the replica back and replays missed failure
// events before routing to it, so registration succeeding means the
// replica is caught up.
func selfRegister(ctx context.Context, joinURL, name, selfURL string, stdout, stderr io.Writer) {
	body, _ := json.Marshal(map[string]string{"name": name, "addr": selfURL})
	delay := 200 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			joinURL+"/v1/federation/join", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(stderr, "peeld: register with %s: %v\n", joinURL, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var out struct {
					Events int `json:"events"`
				}
				json.Unmarshal(raw, &out) //nolint:errcheck // best-effort detail for the log line
				fmt.Fprintf(stdout, "peeld: registered as %q with %s (%d events replayed)\n", name, joinURL, out.Events)
				return
			}
			err = fmt.Errorf("router answered %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		fmt.Fprintf(stderr, "peeld: register with %s: %v (retrying in %v)\n", joinURL, err, delay)
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		if delay < 5*time.Second {
			delay *= 2
		}
	}
}
