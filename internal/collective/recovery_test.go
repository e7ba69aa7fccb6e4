package collective

import (
	"testing"

	"peel/internal/chaos"
	"peel/internal/core"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// runReport is tb.run for the extended completion record.
func (tb *testbed) runReport(t *testing.T, c *workload.Collective, s Scheme) Report {
	t.Helper()
	var rep Report
	done := false
	if err := tb.runner.StartReport(c, s, func(r Report) { rep = r; done = true }); err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	if err := tb.eng.Run(80_000_000); err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	if !done {
		t.Fatalf("%s: collective never completed", s)
	}
	return rep
}

// treeVictim returns a switch-to-switch link of the collective's optimal
// delivery tree — the link whose death breaks the multicast mid-flight.
func treeVictim(t *testing.T, g *topology.Graph, c *workload.Collective) topology.LinkID {
	t.Helper()
	tree, err := core.BuildTree(g, c.Source(), c.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tree.Members {
		p := tree.Parent[m]
		if p == topology.None {
			continue
		}
		if g.Node(m).Kind.IsSwitch() && g.Node(p).Kind.IsSwitch() {
			return g.LinkBetween(m, p)
		}
	}
	t.Fatal("delivery tree has no switch-to-switch edge")
	return topology.LinkID(-1)
}

// TestWatchdogRepairsMidFlightTreeFailure is the deterministic regression
// for online repair: a broadcast loses a tree link at 30% of the clean CCT
// (the link never heals) and must still complete, with the recovery stats
// recording the stall, the repair, and the downtime paid.
func TestWatchdogRepairsMidFlightTreeFailure(t *testing.T) {
	members := []int{1, 3, 5, 8, 12, 15}
	const bytes = 4 << 20

	clean := newTestbed(t, nil)
	cleanRep := clean.runReport(t, clean.collective(t, 0, members, bytes), Optimal)
	if cleanRep.Recovery != (RecoveryStats{}) {
		t.Fatalf("failure-free run has recovery stats: %+v", cleanRep.Recovery)
	}

	tb := newTestbed(t, nil)
	tb.runner.Watchdog = 100 * sim.Microsecond
	c := tb.collective(t, 0, members, bytes)
	victim := treeVictim(t, tb.g, c)
	sched := (&chaos.Schedule{}).FailLinkAt(cleanRep.CCT*3/10, victim)
	if err := chaos.NewInjector(tb.g, tb.eng).Arm(sched); err != nil {
		t.Fatal(err)
	}
	rep := tb.runReport(t, c, Optimal)

	r := rep.Recovery
	if r.Stalls < 1 || r.Repairs < 1 {
		t.Fatalf("no repair happened: %+v", r)
	}
	if r.Abandoned != 0 {
		t.Fatalf("receivers abandoned despite a repairable failure: %+v", r)
	}
	if r.FirstStallAt <= 0 || r.Downtime <= 0 {
		t.Fatalf("stall timing not recorded: %+v", r)
	}
	if rep.CCT <= cleanRep.CCT {
		t.Fatalf("repaired CCT %v not above clean %v", rep.CCT, cleanRep.CCT)
	}
	if tb.net.LinkDrops == 0 {
		t.Fatal("dead tree link dropped no frames")
	}
}

// subtreeVictim returns the delivery-tree link feeding one receiver's edge
// switch — a failure that orphans a small subtree, the case incremental
// repair is designed to graft around rather than re-peel.
func subtreeVictim(t *testing.T, g *topology.Graph, c *workload.Collective) topology.LinkID {
	t.Helper()
	tree, err := core.BuildTree(g, c.Source(), c.Receivers())
	if err != nil {
		t.Fatal(err)
	}
	recvs := c.Receivers()
	e := g.EdgeSwitchOf(recvs[len(recvs)-1])
	p := tree.Parent[e]
	if p == topology.None {
		t.Fatalf("edge switch %d has no tree parent", e)
	}
	return g.LinkBetween(p, e)
}

// TestWatchdogPatchRepair pins the incremental path end to end: a
// small-subtree link failure mid-flight must be repaired by grafting
// (collective.repair.patched fires) and the collective must still
// complete every receiver.
func TestWatchdogPatchRepair(t *testing.T) {
	members := []int{1, 3, 5, 8, 12, 15}
	const bytes = 4 << 20

	clean := newTestbed(t, nil)
	cleanRep := clean.runReport(t, clean.collective(t, 0, members, bytes), Optimal)

	sink := telemetry.NewSink(0)
	defer telemetry.Enable(sink)()
	tb := newTestbed(t, nil)
	tb.runner.Watchdog = 100 * sim.Microsecond
	c := tb.collective(t, 0, members, bytes)
	victim := subtreeVictim(t, tb.g, c)
	sched := (&chaos.Schedule{}).FailLinkAt(cleanRep.CCT*3/10, victim)
	if err := chaos.NewInjector(tb.g, tb.eng).Arm(sched); err != nil {
		t.Fatal(err)
	}
	rep := tb.runReport(t, c, Optimal)

	if rep.Recovery.Repairs < 1 || rep.Recovery.Abandoned != 0 {
		t.Fatalf("repair did not complete cleanly: %+v", rep.Recovery)
	}
	if patched := sink.Counter("collective.repair.patched").Value(); patched < 1 {
		t.Fatalf("repaired %d times without a single graft", rep.Recovery.Repairs)
	}
}

// TestEmptyChaosScheduleByteIdentical pins the zero-overhead guarantee: with
// no failures injected, enabling the watchdog (and arming an empty chaos
// schedule) must not change the collective's result at all.
func TestEmptyChaosScheduleByteIdentical(t *testing.T) {
	members := []int{1, 3, 5, 8, 12, 15}
	const bytes = 4 << 20
	for _, s := range []Scheme{Ring, Orca, PEEL} {
		off := newTestbed(t, nil)
		offRep := off.runReport(t, off.collective(t, 0, members, bytes), s)

		on := newTestbed(t, nil)
		on.runner.Watchdog = 100 * sim.Microsecond
		if err := chaos.NewInjector(on.g, on.eng).Arm(&chaos.Schedule{}); err != nil {
			t.Fatal(err)
		}
		onRep := on.runReport(t, on.collective(t, 0, members, bytes), s)

		if onRep.CCT != offRep.CCT {
			t.Fatalf("%s: watchdog-on CCT %v != watchdog-off %v", s, onRep.CCT, offRep.CCT)
		}
		if onRep.Recovery != (RecoveryStats{}) {
			t.Fatalf("%s: recovery stats nonzero without failures: %+v", s, onRep.Recovery)
		}
	}
}

// TestAbandonAfterRepairBudget cuts one receiver off completely (its only
// uplink dies, permanently): no repair tree or unicast detour can reach it,
// so after MaxRepairs attempts the collective must abandon it and still
// terminate, reporting the delivery failure.
func TestAbandonAfterRepairBudget(t *testing.T) {
	members := []int{1, 3, 5, 8, 12, 15}
	const bytes = 4 << 20

	clean := newTestbed(t, nil)
	cleanRep := clean.runReport(t, clean.collective(t, 0, members, bytes), Optimal)

	tb := newTestbed(t, nil)
	tb.runner.Watchdog = 100 * sim.Microsecond
	tb.runner.MaxRepairs = 2
	c := tb.collective(t, 0, members, bytes)
	lost := tb.g.Hosts()[15]
	uplink := tb.g.LinkBetween(lost, tb.g.EdgeSwitchOf(lost))
	sched := (&chaos.Schedule{}).FailLinkAt(cleanRep.CCT/10, uplink)
	if err := chaos.NewInjector(tb.g, tb.eng).Arm(sched); err != nil {
		t.Fatal(err)
	}
	rep := tb.runReport(t, c, Optimal)

	r := rep.Recovery
	if r.Abandoned != 1 {
		t.Fatalf("Abandoned=%d, want exactly the cut-off receiver: %+v", r.Abandoned, r)
	}
	if r.Stalls < 1 {
		t.Fatalf("abandonment without a declared stall: %+v", r)
	}
	if r.Repairs != 0 || r.UnicastFallbacks != 0 {
		t.Fatalf("unreachable receiver still got a repair installed: %+v", r)
	}
	if rep.CCT <= 0 {
		t.Fatalf("CCT=%v", rep.CCT)
	}
}

// TestWatchdogHysteresis drives the watchdog by hand over stripes that
// never deliver, for a single-tree run (k = 1) and a striped one (k = 4):
// one quiet tick never declares a stall and two do, an open planned-dark
// window resets the count, and an outstanding controller install —
// Orca's rule setup or a stripe's own repair — suppresses the verdict.
func TestWatchdogHysteresis(t *testing.T) {
	// One rune per tick: '.' quiet, 'd' planned-dark window open, 's'
	// setup install outstanding, 'i' repair install outstanding. The first
	// tick records the baseline progress.
	cases := []struct {
		name  string
		ticks string
		want  int // stalls per stripe
	}{
		{"one quiet tick", "..", 0},
		{"two quiet ticks", "...", 1},
		{"dark resets the count", "..d.", 0},
		{"two quiet ticks after dark", "..d..", 1},
		{"setup pending", ".sss", 0},
		{"repair install pending", ".iii", 0},
	}
	for _, k := range []int{1, 4} {
		for _, tc := range cases {
			tb := newTestbed(t, nil)
			tb.runner.Watchdog = 100 * sim.Microsecond
			dark := false
			tb.runner.PlannedDark = func() bool { return dark }
			c := tb.collective(t, 0, []int{1, 3, 5, 8}, 1<<20)
			in := &instance{r: tb.runner, c: c, reportDone: func(Report) {}}
			in.initCompletion()
			if k > 1 {
				in.sizes = make([]int64, k)
				in.got = map[topology.NodeID][]bool{}
				in.need = map[topology.NodeID]int{}
				for _, m := range c.Receivers() {
					in.got[m] = make([]bool, k)
					in.need[m] = k
				}
				in.stripes = nil
				for i := 0; i < k; i++ {
					in.stripes = append(in.stripes, &stripe{idx: i, chunks: []int{i},
						remaining: len(c.Receivers()), last: -1})
				}
			}
			for _, tick := range tc.ticks {
				dark = tick == 'd'
				in.setupPending = tick == 's'
				for _, st := range in.stripes {
					st.installing = st.installing || tick == 'i'
				}
				in.watchdogTick()
			}
			if got := in.recovery.Stalls; got != tc.want*k {
				t.Errorf("k=%d %s (%q): %d stalls, want %d", k, tc.name, tc.ticks, got, tc.want*k)
			}
		}
	}
}
