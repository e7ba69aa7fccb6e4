package collective

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/topology"
	"peel/internal/workload"
)

func TestOrcaAllMembersInSourceRack(t *testing.T) {
	// No remote racks → no fabric multicast; the source relays its rack
	// directly after the controller installs.
	tb := newTestbed(t, nil)
	c := tb.collective(t, 0, []int{1}, 2<<20) // host 1 shares rack with host 0
	cct := tb.run(t, c, Orca)
	if cct < sim.Time(100*sim.Microsecond) {
		t.Fatalf("controller floor missing: %v", cct)
	}
}

func TestOrcaWithoutController(t *testing.T) {
	// A runner with Ctrl == nil starts Orca immediately.
	g := topology.FatTree(4)
	eng := &sim.Engine{}
	net := netsim.New(g, eng, netsim.DefaultConfig())
	cl := workload.NewCluster(g, 8)
	r := NewRunner(net, cl, nil, nil)
	hosts := g.Hosts()
	c := &workload.Collective{Bytes: 2 << 20, GPUs: 32, Hosts: hosts[:4]}
	var cct sim.Time = -1
	if err := r.Start(c, Orca, func(d sim.Time) { cct = d }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if cct <= 0 || cct > sim.Time(5*sim.Millisecond) {
		t.Fatalf("controllerless orca cct=%v, want sub-controller latency", cct)
	}
}

func TestPEELWithoutPlannerUsesTree(t *testing.T) {
	// Leaf-spine fabric: no prefix tier, PEEL falls back to the
	// layer-peeling tree (Fig. 7's configuration).
	g := topology.LeafSpine(4, 6, 2)
	eng := &sim.Engine{}
	net := netsim.New(g, eng, netsim.DefaultConfig())
	cl := workload.NewCluster(g, 8)
	r := NewRunner(net, cl, nil, controller.New(rand.New(rand.NewSource(1))))
	hosts := g.Hosts()
	c := &workload.Collective{Bytes: 2 << 20, GPUs: 48, Hosts: hosts[:6]}
	var cct sim.Time = -1
	if err := r.Start(c, PEEL, func(d sim.Time) { cct = d }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if cct <= 0 {
		t.Fatal("peel-on-leaf-spine never completed")
	}
}

func TestLoadsErrorOnPartition(t *testing.T) {
	g := topology.LeafSpine(1, 2, 1)
	spine := g.NodesOfKind(topology.Spine)[0]
	for _, he := range g.Adj(spine) {
		g.FailLink(he.Link)
	}
	hosts := g.Hosts()
	if _, err := RingLinkLoads(g, hosts); err == nil {
		t.Fatal("ring loads must fail on partition")
	}
	if _, err := BinaryTreeLinkLoads(g, hosts); err == nil {
		t.Fatal("tree loads must fail on partition")
	}
}

func TestChunkSizesSumAndCount(t *testing.T) {
	tb := newTestbed(t, nil)
	in := &instance{r: tb.runner, c: &workload.Collective{Bytes: 1000}}
	sizes := in.chunkSizes()
	if len(sizes) != 8 {
		t.Fatalf("chunks=%d", len(sizes))
	}
	var sum int64
	for _, s := range sizes {
		if s <= 0 {
			t.Fatalf("non-positive chunk %d", s)
		}
		sum += s
	}
	if sum != 1000 {
		t.Fatalf("sum=%d", sum)
	}
	// Tiny message: fewer chunks than the pipelining depth.
	in2 := &instance{r: tb.runner, c: &workload.Collective{Bytes: 3}}
	if got := in2.chunkSizes(); len(got) != 3 {
		t.Fatalf("tiny message chunks=%d want 3", len(got))
	}
}

// rosterSchemes lists every roster row in name order.
func rosterSchemes() []Scheme {
	out := make([]Scheme, 0, len(roster))
	for s := range roster {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property: for random small groups, every roster scheme completes and
// delivers at least bytes × receivers of host-link traffic.
func TestQuickAllSchemesDeliver(t *testing.T) {
	for _, scheme := range rosterSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			f := func(seed int64, nRaw uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				g := topology.FatTree(4)
				eng := &sim.Engine{}
				net := netsim.New(g, eng, netsim.DefaultConfig())
				pl, err := core.NewPlanner(g)
				if err != nil {
					return false
				}
				cl := workload.NewCluster(g, 8)
				r := NewRunner(net, cl, pl, controller.New(rng))
				hosts := g.Hosts()
				rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
				n := 2 + int(nRaw)%8
				const M = 256 << 10
				c := &workload.Collective{Bytes: M, GPUs: n * 8, Hosts: hosts[:n]}
				done := false
				if err := r.Start(c, scheme, func(sim.Time) { done = true }); err != nil {
					return false
				}
				if err := eng.Run(30_000_000); err != nil {
					return false
				}
				if !done {
					return false
				}
				// Every receiver's host link carried ≥ the full message.
				for _, h := range c.Receivers() {
					up := g.EdgeSwitchOf(h)
					if net.Channel(up, h).BytesSent < M {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRosterRejectsEmptyMessage: a message below one byte cannot be
// chunked, so every roster row must refuse it at the lookup — for
// broadcast, and for allgather where the row has one — before anything
// is scheduled, instead of failing inside the event loop.
func TestRosterRejectsEmptyMessage(t *testing.T) {
	for _, s := range rosterSchemes() {
		for _, bytes := range []int64{0, -1} {
			starts := map[string]func(*testbed, *workload.Collective) error{
				"broadcast": func(tb *testbed, c *workload.Collective) error {
					return tb.runner.Start(c, s, func(sim.Time) {})
				},
			}
			if roster[s].allgather != nil {
				starts["allgather"] = func(tb *testbed, c *workload.Collective) error {
					return tb.runner.StartAllGather(c, s, func(sim.Time) {})
				}
			}
			for kind, start := range starts {
				tb := newTestbed(t, nil)
				c := tb.collective(t, 0, []int{1, 4, 8, 12}, bytes)
				if err := start(tb, c); err == nil {
					t.Errorf("%s %s of %d bytes: started, want an error", s, kind, bytes)
					continue
				}
				if err := tb.eng.Run(1_000_000); err != nil || tb.eng.Processed() != 0 {
					t.Errorf("%s %s of %d bytes: rejected but ran %d events (%v)",
						s, kind, bytes, tb.eng.Processed(), err)
				}
			}
		}
	}
}

func TestDoubleBinaryTreeCompletes(t *testing.T) {
	tb := newTestbed(t, nil)
	c := tb.collective(t, 0, []int{1, 2, 3, 5, 7, 9, 11, 13, 15}, 8<<20)
	cct := tb.run(t, c, DblBinTree)
	if cct <= 0 {
		t.Fatalf("cct=%v", cct)
	}
	// Every receiver's host link carried the full message.
	for _, h := range c.Receivers() {
		up := tb.g.EdgeSwitchOf(h)
		if got := tb.net.Channel(up, h).BytesSent; got < 8<<20 {
			t.Fatalf("receiver %d got %d bytes", h, got)
		}
	}
}

func TestDoubleBeatsSingleBinaryTree(t *testing.T) {
	// The point of the double tree: interior nodes send half as much, so
	// CCT improves for deep trees.
	members := make([]int, 31)
	for i := range members {
		members[i] = i + 1
	}
	run := func(s Scheme) sim.Time {
		tb := newTestbedK(t, 8, nil)
		c := tb.collective(t, 0, members, 8<<20)
		return tb.run(t, c, s)
	}
	single := run(BinTree)
	double := run(DblBinTree)
	if double >= single {
		t.Fatalf("double tree %v !< single tree %v", double, single)
	}
}
