package netsim

import (
	"testing"

	"peel/internal/sim"
	"peel/internal/topology"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero LinkBps", func(c *Config) { c.LinkBps = 0 }},
		{"negative NVLinkBps", func(c *Config) { c.NVLinkBps = -1 }},
		{"zero FrameBytes", func(c *Config) { c.FrameBytes = 0 }},
		{"negative FrameBytes", func(c *Config) { c.FrameBytes = -4096 }},
		{"zero BufferBytes", func(c *Config) { c.BufferBytes = 0 }},
		{"negative PropDelay", func(c *Config) { c.PropDelay = -sim.Nanosecond }},
		{"negative SwitchLatency", func(c *Config) { c.SwitchLatency = -sim.Nanosecond }},
		{"negative CNPDelay", func(c *Config) { c.CNPDelay = -sim.Nanosecond }},
		{"negative RepairRTO", func(c *Config) { c.RepairRTO = -sim.Nanosecond }},
		{"negative LossRate", func(c *Config) { c.LossRate = -0.1 }},
		{"LossRate above 1", func(c *Config) { c.LossRate = 1.5 }},
		{"loss without RTO", func(c *Config) { c.LossRate = 0.01; c.RepairRTO = 0 }},
		{"negative BufferBytes", func(c *Config) { c.BufferBytes = -1 }},
		{"negative ECN Kmin", func(c *Config) { c.ECNKminBytes = -1 }},
		{"inverted ECN thresholds", func(c *Config) { c.ECNKminBytes = 10 << 10; c.ECNKmaxBytes = 5 << 10 }},
		{"negative ECNPmax", func(c *Config) { c.ECNPmax = -0.01 }},
		{"ECNPmax above 1", func(c *Config) { c.ECNPmax = 1.2 }},
		{"PFC with zero free fraction", func(c *Config) { c.PFCFreeFrac = 0 }},
		{"PFC free fraction one", func(c *Config) { c.PFCFreeFrac = 1 }},
		{"zero HostQueueFrames", func(c *Config) { c.HostQueueFrames = 0 }},
		{"negative HostQueueFrames", func(c *Config) { c.HostQueueFrames = -2 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
	// PFCFreeFrac is irrelevant while PFC is off.
	cfg := DefaultConfig()
	cfg.PFCEnabled = false
	cfg.PFCFreeFrac = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("PFC off: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	cfg := DefaultConfig()
	cfg.FrameBytes = 0
	New(topology.LeafSpine(2, 2, 1), &sim.Engine{}, cfg)
}

// failMidFlight kills one path link of a unicast flow partway through the
// transfer and returns the rig, flow, and failed link.
func failMidFlight(t *testing.T, heal bool) (*rig, *Flow, topology.LinkID, *int64) {
	t.Helper()
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	hosts := r.g.Hosts()
	src, dst := hosts[0], hosts[15] // cross-leaf: the path crosses a spine
	f := r.unicast(t, src, dst)

	// The leaf→spine link on the flow's path: fail the uplink of the
	// source's leaf. All spine uplinks of that leaf would do; take the one
	// the flow actually crosses by failing every leaf-spine uplink of the
	// source's leaf switch.
	leaf := r.g.EdgeSwitchOf(src)
	var uplinks []topology.LinkID
	for _, he := range r.g.Adj(leaf) {
		if r.g.Node(he.Peer).Kind == topology.Spine {
			uplinks = append(uplinks, he.Link)
		}
	}
	const M = 4 << 20
	var got int64
	f.OnChunk(func(_ topology.NodeID, _ int) { got = M })
	f.Send(0, M)

	// Fail at 20% of the ideal transfer time, heal (optionally) at 3×.
	failAt := cfg.txTime(M) / 5
	r.eng.At(failAt, func() {
		for _, id := range uplinks {
			r.g.FailLink(id)
		}
	})
	if heal {
		r.eng.At(3*cfg.txTime(M), func() {
			for _, id := range uplinks {
				r.g.RestoreLink(id)
			}
		})
	}
	return r, f, uplinks[0], &got
}

func TestDownLinkDropsFrames(t *testing.T) {
	r, f, link, got := failMidFlight(t, false)
	// With the path permanently dead, the flow's repair scan would retry
	// forever; a real caller (the collective watchdog) eventually closes
	// the flow — do the same so the engine drains.
	r.eng.At(sim.Second, f.Close)
	if err := r.eng.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if *got != 0 || f.Done() {
		t.Fatal("flow completed across a permanently failed path")
	}
	if r.net.LinkDrops == 0 {
		t.Fatal("no frames counted as dropped on the dead link")
	}
	if !r.net.LinkDown(link) {
		t.Fatal("LinkDown=false for a failed link")
	}
	downs, downTime := r.net.LinkDownStats(link)
	if downs != 1 || downTime <= 0 {
		t.Fatalf("LinkDownStats=(%d,%v), want one ongoing outage", downs, downTime)
	}
	tel := r.net.Telemetry()
	if tel.LinkDrops == 0 || tel.DownLinks == 0 || tel.LinkDownTime <= 0 {
		t.Fatalf("telemetry misses the outage: %+v", tel)
	}
}

func TestHealedLinkResumesAndRepairs(t *testing.T) {
	// With the link healed, the flow's selective-repeat repair scan must
	// re-deliver the dropped frames and complete the transfer.
	r, f, link, got := failMidFlight(t, true)
	if err := r.eng.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if *got == 0 || !f.Done() {
		t.Fatalf("flow did not recover after heal (got=%d done=%v)", *got, f.Done())
	}
	if r.net.LinkDown(link) {
		t.Fatal("LinkDown=true after restore")
	}
	downs, downTime := r.net.LinkDownStats(link)
	if downs != 1 || downTime <= 0 {
		t.Fatalf("LinkDownStats=(%d,%v) after one closed outage", downs, downTime)
	}
	if r.net.LinkDrops == 0 {
		t.Fatal("outage dropped no frames despite traffic in flight")
	}
}

func TestDownLinkQueueFlushedAndWaitersWoken(t *testing.T) {
	// Two flows share the source host's uplink; killing it mid-flight must
	// flush queued frames (buffer accounting back to zero on that channel)
	// without wedging the engine on parked NIC waiters.
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	hosts := r.g.Hosts()
	f1 := r.unicast(t, hosts[0], hosts[15])
	f2 := r.unicast(t, hosts[0], hosts[14])
	f1.Send(0, 1<<20)
	f2.Send(0, 1<<20)

	uplink := r.g.LinkBetween(hosts[0], r.g.EdgeSwitchOf(hosts[0]))
	r.eng.At(cfg.txTime(1<<19), func() { r.g.FailLink(uplink) })
	r.eng.At(sim.Second, func() { f1.Close(); f2.Close() })
	if err := r.eng.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	// The engine drained: no livelock, and the dead uplink counted drops
	// from both flows' remaining frames.
	if r.net.LinkDrops == 0 {
		t.Fatal("host uplink failure dropped nothing")
	}
	if f1.Done() || f2.Done() {
		t.Fatal("flow completed without a path")
	}
}
