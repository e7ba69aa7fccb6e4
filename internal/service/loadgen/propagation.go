package loadgen

// The propagation probe: measures how long a failure-driven tree update
// takes to reach interested clients, under the same churn workload the
// generator already runs. Two modes share one harness so the numbers are
// directly comparable:
//
//   - "push": wire-protocol subscribers (internal/service/wire) receive
//     server-pushed updates; latency is flap-to-receipt of the first
//     failure-flagged push at the flap's generation.
//   - "poll": plain GetTree pollers at a fixed interval; latency is
//     flap-to-first-observation of a tree computed at the flap's
//     generation — the baseline the push path exists to beat.
//
// Attribution is by topology generation: worker 0 stamps every FailLink
// with (generation, time); subscribers record (generation, receipt time)
// observations; the two sides join after the run, so no lookup races the
// refresher. Latencies are wall-clock and never feed telemetry (the
// golden run-report stays deterministic); Stats.Propagation is omitempty
// for the same reason.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"peel/internal/service/wire"
)

// PropagationConfig arms the probe; see the file comment for the modes.
type PropagationConfig struct {
	// Mode is "push" (wire subscribers) or "poll" (GetTree baseline).
	Mode string
	// Subscribers is how many concurrent subscribers/pollers to run
	// (default 4).
	Subscribers int
	// GroupsEach is how many groups each subscriber tracks (default 4),
	// assigned round-robin over the generator's groups.
	GroupsEach int
	// WireAddr is the wire-protocol address (push mode).
	WireAddr string
	// PollInterval is the GetTree cadence (poll mode; default 5ms).
	PollInterval time.Duration
	// ClientOptions tunes the wire clients (push mode); zero values take
	// the wire defaults.
	ClientOptions wire.ClientOptions
}

// PropagationStats reports the probe's outcome.
type PropagationStats struct {
	Mode          string `json:"mode"`
	Subscribers   int    `json:"subscribers"`
	Updates       int64  `json:"updates"`        // tree updates delivered (push) or polls that returned (poll)
	FailurePushes int64  `json:"failure_pushes"` // pushes flagged failure-driven (push mode)
	Gaps          int64  `json:"gaps"`           // seq jumps over coalesced versions (push mode)
	Samples       int    `json:"samples"`        // attributed flap→receipt latencies
	P50Ns         int64  `json:"p50_ns"`
	P99Ns         int64  `json:"p99_ns"`
	MaxNs         int64  `json:"max_ns"`
}

// genSource is how the probe reads the topology generation off the fault
// injector; *service.Service implements it.
type genSource interface{ Gen() uint64 }

// observation is one subscriber-side sighting of a tree at a generation.
type observation struct {
	gen uint64
	at  time.Time
}

// propProbe runs the subscribers and accumulates observations.
type propProbe struct {
	cfg    PropagationConfig
	gen    *Generator
	stopCh chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	flapAt map[uint64]time.Time
	obs    []observation

	updates       int64
	failurePushes int64
	gaps          int64
}

// ArmPropagation attaches a propagation probe to the next Run. Push mode
// needs a reachable wire server and a FaultInjector that reports its
// generation (a *service.Service); the flap schedule (FlapEvery) provides
// the failures being measured.
func (g *Generator) ArmPropagation(cfg PropagationConfig) error {
	if cfg.Mode != "push" && cfg.Mode != "poll" {
		return fmt.Errorf("loadgen: propagation mode %q (want \"push\" or \"poll\")", cfg.Mode)
	}
	if cfg.Mode == "push" && cfg.WireAddr == "" {
		return fmt.Errorf("loadgen: propagation push mode needs WireAddr")
	}
	if _, ok := g.faults.(genSource); !ok {
		return fmt.Errorf("loadgen: propagation probe needs a generation-reporting FaultInjector")
	}
	if g.cfg.FlapEvery <= 0 {
		return fmt.Errorf("loadgen: propagation probe needs a flap schedule (FlapEvery)")
	}
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 4
	}
	if cfg.GroupsEach <= 0 {
		cfg.GroupsEach = 4
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	g.probe = &propProbe{
		cfg:    cfg,
		gen:    g,
		stopCh: make(chan struct{}),
		flapAt: map[uint64]time.Time{},
	}
	return nil
}

// noteFlap is called by worker 0 with the generation right after a
// FailLink and the timestamp taken right before it, so the sample spans
// the whole transition (invalidate → refresh → encode → deliver).
func (p *propProbe) noteFlap(gen uint64, at time.Time) {
	p.mu.Lock()
	if _, dup := p.flapAt[gen]; !dup {
		p.flapAt[gen] = at
	}
	p.mu.Unlock()
}

func (p *propProbe) observe(gen uint64, at time.Time) {
	p.mu.Lock()
	p.obs = append(p.obs, observation{gen, at})
	p.mu.Unlock()
}

// groupsFor assigns subscriber i its round-robin slice of group IDs.
func (p *propProbe) groupsFor(i int) []string {
	ids := p.gen.ids
	out := make([]string, 0, p.cfg.GroupsEach)
	for j := 0; j < p.cfg.GroupsEach; j++ {
		out = append(out, ids[(i*p.cfg.GroupsEach+j)%len(ids)])
	}
	return out
}

// start launches the subscribers. Push-mode dial errors surface here so a
// run against a dead wire server fails loudly instead of measuring
// nothing.
func (p *propProbe) start() error {
	for i := 0; i < p.cfg.Subscribers; i++ {
		gids := p.groupsFor(i)
		if p.cfg.Mode == "push" {
			c, err := wire.Dial(p.cfg.WireAddr, p.cfg.ClientOptions)
			if err != nil {
				return fmt.Errorf("loadgen: propagation subscriber %d: %w", i, err)
			}
			for _, gid := range gids {
				if err := c.Subscribe(gid); err != nil {
					c.Close()
					return fmt.Errorf("loadgen: propagation subscriber %d: %w", i, err)
				}
			}
			p.wg.Add(1)
			go p.runPush(c)
		} else {
			p.wg.Add(1)
			go p.runPoll(gids)
		}
	}
	return nil
}

// runPush consumes one wire client's updates, recording the first sighting
// of each (group, generation) carried by a failure-driven push.
func (p *propProbe) runPush(c *wire.Client) {
	defer p.wg.Done()
	defer func() {
		st := c.Stats()
		p.mu.Lock()
		p.updates += st.Updates
		p.gaps += st.Gaps
		p.mu.Unlock()
		c.Close()
	}()
	seen := map[string]uint64{} // group → highest generation observed
	for {
		select {
		case <-p.stopCh:
			// Drain whatever already arrived before stopping so pushes that
			// raced the stop still count in the totals — but their true
			// receipt time is unknown (they sat buffered), so they never
			// become latency samples.
			for {
				select {
				case u, ok := <-c.Updates():
					if !ok {
						return
					}
					p.handlePush(u, seen, false)
				default:
					return
				}
			}
		case u, ok := <-c.Updates():
			if !ok {
				return
			}
			p.handlePush(u, seen, true)
		}
	}
}

func (p *propProbe) handlePush(u wire.TreeUpdate, seen map[string]uint64, sample bool) {
	if u.Err != nil || !u.FailureDriven() {
		return
	}
	p.mu.Lock()
	p.failurePushes++
	p.mu.Unlock()
	if last, ok := seen[u.Group]; ok && u.Gen <= last {
		return
	}
	seen[u.Group] = u.Gen
	if sample {
		p.observe(u.Gen, time.Now())
	}
}

// runPoll is the baseline: GetTree each assigned group at the configured
// interval, recording the first sighting of each new generation.
func (p *propProbe) runPoll(gids []string) {
	defer p.wg.Done()
	seen := map[string]uint64{}
	ticker := time.NewTicker(p.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
		}
		for _, gid := range gids {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			ti, err := p.gen.client.GetTree(ctx, gid)
			cancel()
			if err != nil {
				continue
			}
			p.mu.Lock()
			p.updates++
			p.mu.Unlock()
			if last, ok := seen[gid]; ok && ti.Gen <= last {
				continue
			}
			seen[gid] = ti.Gen
			p.observe(ti.Gen, time.Now())
		}
	}
}

// stop ends the subscribers after a short grace so in-flight pushes land,
// then joins (gen, receipt) observations against the flap stamps into the
// final latency distribution.
func (p *propProbe) stop() *PropagationStats {
	time.Sleep(50 * time.Millisecond)
	close(p.stopCh)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	var lat []int64
	for _, o := range p.obs {
		if at, ok := p.flapAt[o.gen]; ok {
			if d := o.at.Sub(at); d >= 0 {
				lat = append(lat, int64(d))
			}
		}
	}
	st := &PropagationStats{
		Mode:          p.cfg.Mode,
		Subscribers:   p.cfg.Subscribers,
		Updates:       p.updates,
		FailurePushes: p.failurePushes,
		Gaps:          p.gaps,
		Samples:       len(lat),
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.P50Ns = lat[len(lat)/2]
		st.P99Ns = lat[len(lat)*99/100]
		st.MaxNs = lat[len(lat)-1]
	}
	return st
}
