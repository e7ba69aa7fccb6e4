package collective

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"peel/internal/chaos"
	"peel/internal/sim"
	"peel/internal/topology"
)

// Recovery differential pins. Every constant below was recorded by running
// this file at the commit before the global watchdog, the per-stripe
// watchdog and the announced-epoch pre-peel were folded into one recovery
// engine (and multitree-* into the striped launcher). The recovery code
// may be restructured; the (at, seq) of every processed event, the CCT,
// every RecoveryStats field and the per-stripe report may not change.
//
// Each case is a scripted-chaos run on the 4-ary fat-tree with the
// watchdog armed: a seeded fraction of the switch-switch links fails
// mid-flight and (when heal > 0) heals later. The multitree-2 outage
// heals inside the watchdog's hysteresis, so that case pins the striped
// launcher the scheme now shares, not its recovery: before the fold a
// multitree-* stall re-planned the whole collective, now it repairs one
// stripe.
//
// The rows after multitree-2 (the eight remaining broadcast schemes, and
// the allgather rows) were recorded at the commit before the scheme
// roster folded the per-scheme launchers into one relay overlay and one
// multicast launcher; the same rule holds for them.

// recoveryCase is one pinned scenario.
type recoveryCase struct {
	name       string
	scheme     Scheme
	seed       int64
	frac       float64
	fail, heal sim.Time // heal 0: the failures are permanent
	maxRepairs int
	epoch      bool // announce the failures ahead of time (PrepareEpoch + PlannedDark)
	// allgather runs StartAllGather on a failure-free fabric instead: the
	// allgather data paths have no recovery, so these cases pin only the
	// launchers' event stream and CCT.
	allgather bool
	want      string
}

// recoveryMembers is the broadcast group (host indices; source first).
var recoveryMembers = []int{2, 3, 5, 6, 9, 11, 12, 14, 15}

// runRecoveryCase runs one scenario and folds its observables into one
// comparable line.
func runRecoveryCase(t *testing.T, rc recoveryCase) string {
	t.Helper()
	tb := newTestbed(t, nil)
	tb.runner.Watchdog = 100 * sim.Microsecond
	tb.runner.MaxRepairs = rc.maxRepairs
	h := fnv.New64a()
	var buf [16]byte
	tb.eng.SetTrace(func(at sim.Time, seq uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(at) >> (8 * i))
			buf[8+i] = byte(seq >> (8 * i))
		}
		h.Write(buf[:])
	})
	c := tb.collective(t, 0, recoveryMembers, 2<<20)
	if rc.allgather {
		var cct sim.Time = -1
		if err := tb.runner.StartAllGather(c, rc.scheme, func(d sim.Time) { cct = d }); err != nil {
			t.Fatalf("%s: %v", rc.scheme, err)
		}
		if err := tb.eng.Run(80_000_000); err != nil {
			t.Fatalf("%s: %v", rc.scheme, err)
		}
		return fmt.Sprintf("events=%d trace=%016x cct=%d", tb.eng.Processed(), h.Sum64(), cct)
	}
	sched, links := chaos.FailFractionAt(tb.g, topology.SwitchLinks, rc.frac, rc.fail, rc.heal,
		rand.New(rand.NewSource(rc.seed)))
	if rc.epoch {
		// Announce the failures 60 µs ahead on a post-epoch plan view, and
		// hold the planned-dark window open for 150 µs after they land.
		dark := false
		tb.runner.PlannedDark = func() bool { return dark }
		tb.eng.At(rc.fail-60*sim.Microsecond, func() {
			view := tb.g.Clone()
			for _, id := range links {
				view.FailLink(id)
			}
			tb.runner.PrepareEpoch(view, links)
		})
		tb.eng.At(rc.fail, func() { dark = true })
		tb.eng.At(rc.fail+150*sim.Microsecond, func() { dark = false })
	}
	if err := chaos.NewInjector(tb.g, tb.eng).Arm(sched); err != nil {
		t.Fatal(err)
	}
	rep := tb.runReport(t, c, rc.scheme)
	// Per-stripe repairs as index:count for the nonzero entries only:
	// multitree-* reporting zeros where it used to report nil is a
	// deliberate change pinned by TestMultiTreeReportsAchievedStripes.
	var repaired []string
	for i, n := range rep.StripeRepairs {
		if n != 0 {
			repaired = append(repaired, fmt.Sprintf("%d:%d", i, n))
		}
	}
	return fmt.Sprintf("events=%d trace=%016x cct=%d recovery=%+v stripes=%d stripeRepairs=%v",
		tb.eng.Processed(), h.Sum64(), rep.CCT, rep.Recovery, rep.Stripes, repaired)
}

func TestRecoveryDifferential(t *testing.T) {
	us := sim.Microsecond
	for _, rc := range []recoveryCase{
		{name: "peel", scheme: PEEL, seed: 1, frac: 0.25, fail: 60 * us,
			want: "events=226101 trace=627f62dbd7d61f1e cct=13330210968 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "optimal", scheme: Optimal, seed: 12, frac: 0.1, fail: 60 * us,
			want: "events=321415 trace=75885f84472aa23a cct=12786490574 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:400000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "peel+cores", scheme: PEELCores, seed: 2, frac: 0.25, fail: 60 * us,
			want: "events=183103 trace=63f18f4f8c40f59a cct=5580599487 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:4800000000} stripes=0 stripeRepairs=[]"},
		{name: "ring", scheme: Ring, seed: 3, frac: 0.15, fail: 200 * us, heal: 600 * us,
			want: "events=61245 trace=a1e0fc4465034f65 cct=1400210328 recovery={Stalls:1 Repairs:0 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:500000000 Downtime:400000000} stripes=0 stripeRepairs=[]"},
		{name: "orca", scheme: Orca, seed: 4, frac: 0.25, fail: 12000 * us, heal: 13500 * us,
			want: "events=36632 trace=b7fac56224d68b6a cct=25770194925 recovery={Stalls:2 Repairs:2 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:12400000000 Downtime:13300000000} stripes=0 stripeRepairs=[]"},
		{name: "striped-peel", scheme: StripedPEEL, seed: 11, frac: 0.1, fail: 60 * us,
			want: "events=46996 trace=9fdf6b6da94a5d0c cct=12657654734 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:300000000 Downtime:12500000000} stripes=2 stripeRepairs=[1:1]"},
		{name: "striped-peel-2", scheme: StripedPEEL2, seed: 6, frac: 0.25, fail: 60 * us,
			want: "events=165393 trace=1b74f9a276870ef7 cct=12615711694 recovery={Stalls:2 Repairs:2 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:300000000 Downtime:17300000000} stripes=2 stripeRepairs=[0:1 1:1]"},
		{name: "abandon", scheme: Optimal, seed: 7, frac: 0.6, fail: 60 * us, maxRepairs: 2,
			want: "events=11936 trace=a68cff4d4754c5e5 cct=504330168 recovery={Stalls:1 Repairs:0 UnicastFallbacks:0 Abandoned:9 PrePeels:0 FirstStallAt:300000000 Downtime:0} stripes=0 stripeRepairs=[]"},
		{name: "epoch", scheme: Optimal, seed: 8, frac: 0.1, fail: 100 * us, epoch: true,
			want: "events=156722 trace=eb8b2a2529089f35 cct=12385530574 recovery={Stalls:0 Repairs:0 UnicastFallbacks:0 Abandoned:0 PrePeels:1 FirstStallAt:0 Downtime:0} stripes=0 stripeRepairs=[]"},
		{name: "multitree-2", scheme: MultiTree2, seed: 9, frac: 0.25, fail: 60 * us, heal: 120 * us,
			want: "events=32939 trace=5244dd7a230eee91 cct=408987288 recovery={Stalls:0 Repairs:0 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:0 Downtime:0} stripes=2 stripeRepairs=[]"},
		{name: "tree", scheme: BinTree, seed: 3, frac: 0.15, fail: 200 * us,
			want: "events=240445 trace=fe8cbfd18d3b8f82 cct=13241540814 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:800000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "dtree", scheme: DblBinTree, seed: 5, frac: 0.15, fail: 200 * us, heal: 600 * us,
			want: "events=93521 trace=10bf8c42501a9e60 cct=1575541528 recovery={Stalls:1 Repairs:0 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:600000000} stripes=0 stripeRepairs=[]"},
		{name: "orca-instant", scheme: OrcaInstant, seed: 4, frac: 0.25, fail: 100 * us,
			want: "events=165845 trace=5ec547ab5bd2c9b3 cct=13704330168 recovery={Stalls:2 Repairs:1 UnicastFallbacks:0 Abandoned:1 PrePeels:0 FirstStallAt:400000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "peel-noguard", scheme: PEELNoGuard, seed: 1, frac: 0.25, fail: 60 * us,
			want: "events=226101 trace=627f62dbd7d61f1e cct=13330210968 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "peel-torfilter", scheme: PEELToRFilter, seed: 2, frac: 0.25, fail: 60 * us,
			want: "events=396101 trace=faed82aca35f73d4 cct=13330210968 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:12500000000} stripes=0 stripeRepairs=[]"},
		{name: "peel+cores-torfilter", scheme: PEELCoresFiltered, seed: 2, frac: 0.25, fail: 60 * us,
			want: "events=182851 trace=1e192a9d98432829 cct=5580599487 recovery={Stalls:1 Repairs:1 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:900000000 Downtime:4800000000} stripes=0 stripeRepairs=[]"},
		{name: "multitree-1", scheme: MultiTree1, seed: 10, frac: 0.1, fail: 60 * us,
			want: "events=51533 trace=1a8090ddac4ddcff cct=1204330168 recovery={Stalls:1 Repairs:0 UnicastFallbacks:0 Abandoned:1 PrePeels:0 FirstStallAt:400000000 Downtime:0} stripes=1 stripeRepairs=[]"},
		{name: "multitree-4", scheme: MultiTree4, seed: 11, frac: 0.25, fail: 60 * us,
			want: "events=61071 trace=879bc9e35b08f38b cct=12618167054 recovery={Stalls:2 Repairs:2 UnicastFallbacks:0 Abandoned:0 PrePeels:0 FirstStallAt:300000000 Downtime:17300000000} stripes=2 stripeRepairs=[0:1 1:1]"},
		{name: "allgather/ring", scheme: Ring, allgather: true,
			want: "events=61777 trace=b7215639ddfc62d4 cct=201238399"},
		{name: "allgather/optimal", scheme: Optimal, allgather: true,
			want: "events=30339 trace=555a171d39213715 cct=159607999"},
		{name: "allgather/peel", scheme: PEEL, allgather: true,
			want: "events=49681 trace=ffb1498f4ecce2cb cct=162718719"},
		{name: "allgather/striped-peel", scheme: StripedPEEL, allgather: true,
			want: "events=30757 trace=387deb4e39099fea cct=159608008"},
		{name: "allgather/striped-peel-2", scheme: StripedPEEL2, allgather: true,
			want: "events=30757 trace=387deb4e39099fea cct=159608008"},
	} {
		t.Run(rc.name, func(t *testing.T) {
			if got := runRecoveryCase(t, rc); got != rc.want {
				t.Errorf("\n got %s\nwant %s", got, rc.want)
			}
		})
	}
}
