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

// recoveryCase is one pinned scenario.
type recoveryCase struct {
	name       string
	scheme     Scheme
	seed       int64
	frac       float64
	fail, heal sim.Time // heal 0: the failures are permanent
	maxRepairs int
	epoch      bool // announce the failures ahead of time (PrepareEpoch + PlannedDark)
	want       string
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
	} {
		t.Run(rc.name, func(t *testing.T) {
			if got := runRecoveryCase(t, rc); got != rc.want {
				t.Errorf("\n got %s\nwant %s", got, rc.want)
			}
		})
	}
}
