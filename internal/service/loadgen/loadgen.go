// Package loadgen drives a service.Client with a synthetic multicast
// control-plane workload: Zipf-popular GetTree traffic mixed with
// membership churn (Join/Leave) and group churn (delete + re-place), with
// optional scripted link flaps injected through a FaultInjector.
//
// The generator is deterministic for a fixed (Config, worker count):
// every worker owns a seeded RNG and the flap schedule is keyed to worker
// 0's operation count, not wall time — a single-worker run replays
// identically, which the golden run-report test relies on. Throughput
// numbers (Stats.OpsPerSec) are the only wall-clock-derived outputs and
// never feed telemetry.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peel/internal/service"
	"peel/internal/steiner"
	"peel/internal/topology"
	"peel/internal/workload"
)

// FaultInjector is the chaos hook: the loadgen flaps links through it so
// failure transitions stay serialized with the service's invalidation
// protocol. *service.Service implements it.
type FaultInjector = service.FaultInjector

// RepairCounter is the optional repair-census surface: clients that track
// how invalidated trees recomputed (patched graft vs full re-peel) expose
// it, and the loadgen folds the counts into its final Stats.
// *service.Service and *federation.Federation implement it.
type RepairCounter interface {
	RepairCounts() (patched, fellBack int64)
}

// ReplicaChaos is the process-level chaos hook: alongside link flaps, the
// loadgen can kill and restart whole peeld replicas through it. The
// federation package implements it; a nil ReplicaChaos disables the kill
// schedule.
type ReplicaChaos interface {
	// NumReplicas reports how many replicas exist (alive or dead).
	NumReplicas() int
	// KillReplica hard-kills replica i (kill -9 semantics: no drain, cache
	// and generation state lost). Reports whether the state changed.
	KillReplica(i int) bool
	// RestartReplica boots replica i back up empty; the federation re-admits
	// it after catch-up. Reports whether the state changed.
	RestartReplica(i int) bool
}

// Mix weights the operation types. Zero values fall back to the default
// 92/3/3/2 get/join/leave/churn split, which keeps the steady-state cache
// hit rate above 90% on a Zipf-popular group set.
type Mix struct {
	Get   int // GetTree on a Zipf-sampled group
	Join  int // Join a uniform random host
	Leave int // Leave a random non-source member (falls back to Join when too small)
	Churn int // Delete the group and re-create it with a fresh placement
}

func (m Mix) orDefault() Mix {
	if m.Get+m.Join+m.Leave+m.Churn == 0 {
		return Mix{Get: 92, Join: 3, Leave: 3, Churn: 2}
	}
	return m
}

// Config parameterizes one load run.
type Config struct {
	// Groups is the number of pre-created groups (default 256).
	Groups int
	// GroupSize is the host count per group (default 8).
	GroupSize int
	// Workers is the closed-loop worker count (default GOMAXPROCS). Use 1
	// for a fully deterministic run.
	Workers int
	// Ops is the total operation budget across workers (default 100000).
	Ops int
	// Mix weights the operation types (see Mix).
	Mix Mix
	// ZipfS is the Zipf skew for GetTree group popularity (must be >1;
	// default 1.3).
	ZipfS float64
	// Seed seeds placement and every worker RNG (default 1).
	Seed int64
	// Fragmentation is the placement fragmentation knob passed to
	// workload.Place.
	Fragmentation float64
	// Pace, when >0, sleeps this long between operations on every worker,
	// turning the closed loop into a paced load. Latency-sensitive probes
	// (propagation measurement) need it: a saturating closed loop on a
	// small machine starves the push pipeline's goroutine handoffs and
	// measures scheduler queuing instead of propagation.
	Pace time.Duration
	// FlapEvery, when >0 with a FaultInjector armed, fails a random link
	// every FlapEvery worker-0 operations.
	FlapEvery int
	// FlapHeal restores the flapped link after FlapHeal further worker-0
	// operations (default FlapEvery/2).
	FlapHeal int
	// KillEvery, when >0 with a ReplicaChaos armed, hard-kills a replica
	// every KillEvery worker-0 operations (round-robin over replicas, so a
	// fixed config kills a deterministic sequence).
	KillEvery int
	// KillRestart restarts the killed replica after KillRestart further
	// worker-0 operations (default KillEvery/2).
	KillRestart int
}

func (c Config) withDefaults() Config {
	if c.Groups <= 0 {
		c.Groups = 256
	}
	if c.GroupSize < 2 {
		c.GroupSize = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Ops <= 0 {
		c.Ops = 100000
	}
	c.Mix = c.Mix.orDefault()
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FlapHeal <= 0 {
		c.FlapHeal = c.FlapEvery / 2
	}
	if c.KillRestart <= 0 {
		c.KillRestart = c.KillEvery / 2
	}
	return c
}

// Stats summarizes one run. Benign counts expected lifecycle races (group
// deleted mid-churn, group too small to leave, receiver unreachable
// during a flap window) that are part of the workload, not failures.
// Benign, Overloaded and Errors count every operation; the Get* fields
// are their GetTree share, so every get is exactly one of Hits, Misses,
// GetBenign, GetOverloaded or GetErrors.
type Stats struct {
	Ops           int64         `json:"ops"`
	Gets          int64         `json:"gets"`
	Hits          int64         `json:"hits"`
	Misses        int64         `json:"misses"`
	GetBenign     int64         `json:"get_benign_races"`
	GetOverloaded int64         `json:"get_overloaded"`
	GetErrors     int64         `json:"get_errors"`
	Overloaded    int64         `json:"overloaded"`
	Benign        int64         `json:"benign_races"`
	Errors        int64         `json:"errors"`
	Flaps         int64         `json:"flaps"`
	Kills         int64         `json:"replica_kills,omitempty"`
	Wall          time.Duration `json:"wall_ns"`
	OpsPerSec     float64       `json:"ops_per_sec"`
	HitRate       float64       `json:"hit_rate"`
	// Repair census, from the client's RepairCounter surface (zero when the
	// client does not expose one): invalidated trees recomputed by an
	// incremental graft patch vs patch attempts that fell back to a full
	// re-peel.
	RepairsPatched      int64 `json:"repairs_patched"`
	RepairsFullFallback int64 `json:"repairs_full_fallback"`
	// GetP99Ns is the wall-clock p99 GetTree latency in nanoseconds. Like
	// OpsPerSec it is wall-derived and never feeds telemetry, so the golden
	// run-report stays byte-deterministic.
	GetP99Ns int64 `json:"get_p99_ns"`
	// ErrorsByKind types every non-benign failure so transport-level
	// errors surface in the final report instead of vanishing into one
	// opaque counter: "overloaded" (admission rejection), "draining"
	// (shutdown refusals), "deadline" (context expiry/cancellation),
	// "transport" (everything else — connection refused, EOF, 5xx).
	// Empty (omitted) on a clean run.
	ErrorsByKind map[string]int64 `json:"errors_by_kind,omitempty"`
	// Propagation reports the flap→client update-propagation latency probe
	// (see ArmPropagation); nil when the probe was not armed. Wall-derived
	// like OpsPerSec, so it never feeds telemetry.
	Propagation *PropagationStats `json:"propagation,omitempty"`
}

// ErrorKind buckets a client error for Stats.ErrorsByKind. Exported so
// tests and the federation package agree on the taxonomy.
func ErrorKind(err error) string {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, service.ErrDraining):
		return "draining"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline"
	default:
		return "transport"
	}
}

// latReservoir caps each worker's GetTree latency sample: a uniform
// sample of 64 k latencies is plenty for p99, and a long (or cancelled)
// run's memory stays flat whatever its op budget.
const latReservoir = 1 << 16

// reservoir keeps a uniform sample of at most latReservoir values
// (Algorithm R). It draws from its own RNG, so sampling never shifts the
// worker's operation sequence.
type reservoir struct {
	buf  []int64
	seen int64
	rng  *rand.Rand
}

func (r *reservoir) add(v int64) {
	if len(r.buf) < latReservoir {
		r.buf = append(r.buf, v)
	} else if j := r.rng.Int63n(r.seen + 1); j < latReservoir {
		r.buf[j] = v
	}
	r.seen++
}

// Generator owns a prepared group population and drives the client.
type Generator struct {
	client   service.Client
	faults   FaultInjector
	replicas ReplicaChaos
	cluster  *workload.Cluster
	cfg      Config
	ids      []string
	spec     workload.Spec
	probe    *propProbe
}

// New pre-creates cfg.Groups groups on the client using bin-packed
// placements from the cluster, and returns a generator ready to Run.
// faults may be nil when no chaos is scripted.
func New(client service.Client, faults FaultInjector, cluster *workload.Cluster, cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	g := &Generator{
		client:  client,
		faults:  faults,
		cluster: cluster,
		cfg:     cfg,
		ids:     make([]string, cfg.Groups),
		spec: workload.Spec{
			GPUs:          cfg.GroupSize * cluster.GPUsPerHost,
			Fragmentation: cfg.Fragmentation,
		},
	}
	if cfg.FlapEvery > 0 && faults == nil {
		return nil, fmt.Errorf("loadgen: FlapEvery set but no FaultInjector")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range g.ids {
		g.ids[i] = fmt.Sprintf("g%04d", i)
		members, err := cluster.Place(g.spec, rng)
		if err != nil {
			return nil, fmt.Errorf("loadgen: placing group %d: %w", i, err)
		}
		if _, err := client.CreateGroup(context.Background(), g.ids[i], members); err != nil {
			return nil, fmt.Errorf("loadgen: creating group %d: %w", i, err)
		}
	}
	return g, nil
}

// ArmReplicaChaos attaches the replica kill/restart hook. Required before
// Run when Config.KillEvery > 0.
func (g *Generator) ArmReplicaChaos(rc ReplicaChaos) error {
	if rc == nil || rc.NumReplicas() == 0 {
		return fmt.Errorf("loadgen: replica chaos armed with no replicas")
	}
	g.replicas = rc
	return nil
}

// IDs returns the generator's group IDs (tests sample them directly).
func (g *Generator) IDs() []string { return g.ids }

// benign reports whether err is an expected lifecycle race under churn
// and chaos rather than a generator or service defect.
func benign(err error) bool {
	return errors.Is(err, service.ErrNoSuchGroup) ||
		errors.Is(err, service.ErrGroupExists) ||
		errors.Is(err, service.ErrNotMember) ||
		errors.Is(err, service.ErrGroupTooSmall) ||
		errors.Is(err, steiner.ErrUnreachable)
}

// Run executes the configured operation budget across Workers closed-loop
// workers and returns aggregate stats. Cancelling ctx stops workers at
// their next operation boundary; the stats cover work done so far.
func (g *Generator) Run(ctx context.Context) Stats {
	var st Stats
	var wg sync.WaitGroup
	var ops, gets, hits, misses, flaps, kills atomic.Int64
	// Failure outcomes per operation class: [0] gets, [1] everything else.
	var overloaded, races, errs [2]atomic.Int64
	var ekDraining, ekDeadline, ekTransport atomic.Int64
	// Per-worker GetTree latency reservoirs, merged after the join below —
	// workers never share them, so sampling stays contention-free.
	var latMu sync.Mutex
	var getLat []int64
	if g.cfg.KillEvery > 0 && g.replicas == nil {
		panic("loadgen: KillEvery set but replica chaos not armed (call ArmReplicaChaos)")
	}
	if g.probe != nil {
		if err := g.probe.start(); err != nil {
			panic(err) // armed explicitly; a dead wire server is a harness bug
		}
	}
	per := g.cfg.Ops / g.cfg.Workers
	start := time.Now()
	for w := 0; w < g.cfg.Workers; w++ {
		budget := per
		if w == 0 {
			budget += g.cfg.Ops % g.cfg.Workers
		}
		wg.Add(1)
		go func(worker, budget int) {
			defer wg.Done()
			lat := reservoir{rng: rand.New(rand.NewSource(g.cfg.Seed + int64(worker)*7919 + 1))}
			defer func() {
				latMu.Lock()
				getLat = append(getLat, lat.buf...)
				latMu.Unlock()
			}()
			rng := rand.New(rand.NewSource(g.cfg.Seed + int64(worker)*7919))
			zipf := rand.NewZipf(rng, g.cfg.ZipfS, 1, uint64(len(g.ids)-1))
			hosts := g.cluster.Hosts()
			total := g.cfg.Mix.Get + g.cfg.Mix.Join + g.cfg.Mix.Leave + g.cfg.Mix.Churn
			flapped := topology.LinkID(-1)
			flapStart := 0
			killed, killStart, nextKill := -1, 0, 0
			for op := 0; op < budget; op++ {
				if ctx.Err() != nil {
					return
				}
				// Worker 0 owns the flap schedule: one link down at a
				// time, failed and healed at fixed operation counts so a
				// single-worker run replays exactly.
				if worker == 0 && g.cfg.FlapEvery > 0 {
					if flapped >= 0 && op-flapStart >= g.cfg.FlapHeal {
						g.faults.RestoreLink(flapped)
						flapped = -1
					}
					if flapped < 0 && op%g.cfg.FlapEvery == g.cfg.FlapEvery-1 {
						flapped = topology.LinkID(rng.Intn(g.faults.NumLinks()))
						flapStart = op
						flapAt := time.Now()
						g.faults.FailLink(flapped)
						flaps.Add(1)
						if g.probe != nil {
							// Stamp the transition's generation for the
							// propagation probe's flap→receipt join.
							g.probe.noteFlap(g.faults.(genSource).Gen(), flapAt)
						}
					}
				}
				// Worker 0 also owns the replica kill schedule: one dead
				// replica at a time, round-robin over the fleet, killed and
				// restarted at fixed operation counts (kill -9 semantics —
				// the replica's cache and generation state are lost and the
				// federation must catch it up on re-admission).
				if worker == 0 && g.cfg.KillEvery > 0 {
					if killed >= 0 && op-killStart >= g.cfg.KillRestart {
						g.replicas.RestartReplica(killed)
						killed = -1
					}
					if killed < 0 && op%g.cfg.KillEvery == g.cfg.KillEvery-1 {
						killed = nextKill % g.replicas.NumReplicas()
						nextKill++
						killStart = op
						g.replicas.KillReplica(killed)
						kills.Add(1)
					}
				}
				if g.cfg.Pace > 0 {
					time.Sleep(g.cfg.Pace)
				}
				id := g.ids[zipf.Uint64()]
				r := rng.Intn(total)
				var err error
				class := 1
				switch {
				case r < g.cfg.Mix.Get:
					class = 0
					gets.Add(1)
					var ti service.TreeInfo
					getStart := time.Now()
					ti, err = g.client.GetTree(ctx, id)
					lat.add(int64(time.Since(getStart)))
					if err == nil {
						if ti.Cached {
							hits.Add(1)
						} else {
							misses.Add(1)
						}
					}
				case r < g.cfg.Mix.Get+g.cfg.Mix.Join:
					_, err = g.client.Join(ctx, id, hosts[rng.Intn(len(hosts))])
				case r < g.cfg.Mix.Get+g.cfg.Mix.Join+g.cfg.Mix.Leave:
					err = g.leaveOne(ctx, id, rng)
				default:
					err = g.churnOne(ctx, id, rng)
				}
				ops.Add(1)
				switch {
				case err == nil:
				case errors.Is(err, service.ErrOverloaded):
					overloaded[class].Add(1)
				case benign(err):
					races[class].Add(1)
				default:
					errs[class].Add(1)
					switch ErrorKind(err) {
					case "draining":
						ekDraining.Add(1)
					case "deadline":
						ekDeadline.Add(1)
					default:
						ekTransport.Add(1)
					}
				}
			}
		}(w, budget)
	}
	wg.Wait()
	st.Wall = time.Since(start)
	st.Ops = ops.Load()
	st.Gets = gets.Load()
	st.Hits = hits.Load()
	st.Misses = misses.Load()
	st.GetOverloaded = overloaded[0].Load()
	st.GetBenign = races[0].Load()
	st.GetErrors = errs[0].Load()
	st.Overloaded = st.GetOverloaded + overloaded[1].Load()
	st.Benign = st.GetBenign + races[1].Load()
	st.Errors = st.GetErrors + errs[1].Load()
	st.Flaps = flaps.Load()
	st.Kills = kills.Load()
	byKind := map[string]int64{
		"overloaded": st.Overloaded,
		"draining":   ekDraining.Load(),
		"deadline":   ekDeadline.Load(),
		"transport":  ekTransport.Load(),
	}
	for k, v := range byKind {
		if v == 0 {
			delete(byKind, k)
		}
	}
	if len(byKind) > 0 {
		st.ErrorsByKind = byKind
	}
	if st.Wall > 0 {
		st.OpsPerSec = float64(st.Ops) / st.Wall.Seconds()
	}
	if st.Gets > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Gets)
	}
	if len(getLat) > 0 {
		sort.Slice(getLat, func(i, j int) bool { return getLat[i] < getLat[j] })
		st.GetP99Ns = getLat[len(getLat)*99/100]
	}
	if rc, ok := g.client.(RepairCounter); ok {
		st.RepairsPatched, st.RepairsFullFallback = rc.RepairCounts()
	}
	if g.probe != nil {
		st.Propagation = g.probe.stop()
		g.probe = nil // one probe per Run
	}
	return st
}

// leaveOne removes a random non-source member; groups already at the
// two-member floor get a Join instead so membership keeps circulating.
func (g *Generator) leaveOne(ctx context.Context, id string, rng *rand.Rand) error {
	gi, err := g.client.Describe(ctx, id)
	if err != nil {
		return err
	}
	if len(gi.Members) <= 2 {
		hosts := g.cluster.Hosts()
		_, err = g.client.Join(ctx, id, hosts[rng.Intn(len(hosts))])
		return err
	}
	i := rng.Intn(len(gi.Members))
	if gi.Members[i] == gi.Source {
		i = (i + 1) % len(gi.Members)
	}
	_, err = g.client.Leave(ctx, id, gi.Members[i])
	return err
}

// churnOne tears a group down and re-creates it under the same ID with a
// fresh placement — the control-plane analogue of a job finishing and its
// slots being reallocated.
func (g *Generator) churnOne(ctx context.Context, id string, rng *rand.Rand) error {
	if err := g.client.DeleteGroup(ctx, id); err != nil {
		return err
	}
	members, err := g.cluster.Place(g.spec, rng)
	if err != nil {
		return err
	}
	_, err = g.client.CreateGroup(ctx, id, members)
	return err
}
