package experiments

import (
	"math"
	"strings"
	"testing"

	"peel/internal/collective"
	"peel/internal/invariant"
	"peel/internal/invariant/invtest"
)

func seriesY(t *testing.T, res *Result, label string, p99 bool) []float64 {
	t.Helper()
	set := res.Mean
	if p99 {
		set = res.P99
	}
	for _, s := range set {
		if s.Label == label || strings.TrimSuffix(s.Label, "/p99") == label {
			return s.Y
		}
	}
	t.Fatalf("series %q not found in %s", label, res.Name)
	return nil
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	ring := seriesY(t, res, "ring", false)
	opt := seriesY(t, res, "optimal", false)
	tree := seriesY(t, res, "tree", false)
	if !(ring[0] > opt[0] && tree[0] > opt[0]) {
		t.Fatalf("unicast totals must exceed optimal: ring=%v tree=%v opt=%v", ring[0], tree[0], opt[0])
	}
	if ring[0] < 1.5*opt[0] {
		t.Fatalf("ring overshoot too small: %v vs %v", ring[0], opt[0])
	}
	if opt[1] != 2 {
		t.Fatalf("optimal core traversals=%v want 2", opt[1])
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// At every FPR the curve is increasing in k, and k=64 at 20% exceeds
	// the MTU (the paper's key claim).
	for _, s := range res.Mean {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s not increasing: %v", s.Label, s.Y)
			}
		}
	}
	fpr20 := seriesY(t, res, "FPR=20%", false)
	if fpr20[len(fpr20)-1] <= 1500 {
		t.Fatalf("k=64 @ 20%% = %v B, must exceed MTU", fpr20[len(fpr20)-1])
	}
	fpr1 := seriesY(t, res, "FPR=1%", false)
	if fpr1[0] >= 1500 {
		t.Fatalf("k=4 @ 1%% = %v B, should be small", fpr1[0])
	}
}

func TestStateTableHeadlines(t *testing.T) {
	res, err := StateTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rules := seriesY(t, res, "peel-rules", false)
	naive := seriesY(t, res, "naive-entries", false)
	hdr := seriesY(t, res, "header-B", false)
	// X = {8,16,32,64,128}: rules k−1, naive 2^(k/2), header <8.
	wantRules := []float64{7, 15, 31, 63, 127}
	for i := range wantRules {
		if rules[i] != wantRules[i] {
			t.Fatalf("rules=%v want %v", rules, wantRules)
		}
		if hdr[i] >= 8 {
			t.Fatalf("header %v B at k=%v", hdr[i], res.X[i])
		}
		if naive[i] != math.Pow(2, res.X[i]/2) {
			t.Fatalf("naive[%d]=%v want 2^%v", i, naive[i], res.X[i]/2)
		}
	}
}

func TestApproxStudyBounds(t *testing.T) {
	o := Quick()
	o.Samples = 3
	res, err := ApproxStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	mean := seriesY(t, res, "greedy/exact(mean)", false)
	max := seriesY(t, res, "greedy/exact(max)", false)
	for i := range mean {
		if mean[i] < 1 || max[i] < mean[i] {
			t.Fatalf("ratio inconsistency: mean=%v max=%v", mean, max)
		}
		if mean[i] > 1.3 {
			t.Fatalf("greedy far from optimal on average: %v", mean)
		}
	}
}

func TestRenderProducesTables(t *testing.T) {
	res, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Fig3") || !strings.Contains(out, "FPR=1%") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

// The simulation-backed figures are exercised in quick mode — these are
// the expensive end-to-end paths; full-fidelity runs live in bench_test.go
// and cmd/peelsim.

func TestFig7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	peel := seriesY(t, res, "peel", false)
	ring := seriesY(t, res, "ring", false)
	tree := seriesY(t, res, "tree", false)
	for i := range res.X {
		if !(peel[i] < ring[i]) {
			t.Errorf("fail%%=%v: peel %v !< ring %v", res.X[i], peel[i], ring[i])
		}
		if !(peel[i] < tree[i]) {
			t.Errorf("fail%%=%v: peel %v !< tree %v", res.X[i], peel[i], tree[i])
		}
	}
}

func TestFig5QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	opt := seriesY(t, res, "optimal", false)
	peel := seriesY(t, res, "peel", false)
	ring := seriesY(t, res, "ring", false)
	tree := seriesY(t, res, "tree", false)
	orca := seriesY(t, res, "orca", false)
	for i := range res.X {
		if !(opt[i] <= peel[i]*1.01) {
			t.Errorf("msg=%vMB: optimal %v > peel %v", res.X[i], opt[i], peel[i])
		}
		if !(peel[i] < ring[i] && peel[i] < tree[i]) {
			t.Errorf("msg=%vMB: peel %v not below ring %v / tree %v", res.X[i], peel[i], ring[i], tree[i])
		}
	}
	// Small messages: Orca pays the controller; PEEL must be far faster.
	if !(peel[0]*10 < orca[0]) {
		t.Errorf("2MB: peel %v not ≪ orca %v", peel[0], orca[0])
	}
}

func TestFig4QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	with := res.P99[0].Y
	without := res.P99[1].Y
	// Small messages: controller dominates tail CCT (paper: 8× at 32 MB).
	if !(with[0] > 3*without[0]) {
		t.Errorf("2MB p99: with=%v without=%v, controller penalty missing", with[0], without[0])
	}
	// Large messages: the penalty amortizes.
	last := len(with) - 1
	if with[last] > 3*without[last] {
		t.Errorf("512MB p99: with=%v without=%v, penalty should amortize", with[last], without[last])
	}
}

func TestGuardAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := GuardAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	with, without := res.P99[0].Y[0], res.P99[0].Y[1]
	if !(with <= without) {
		t.Errorf("guard hurt the tail: with=%v without=%v", with, without)
	}
}

func TestBandwidthStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := BandwidthStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	y := res.Mean[0].Y // ring, peel, optimal
	if !(y[2] <= y[1] && y[1] < y[0]) {
		t.Fatalf("bytes ordering violated: ring=%v peel=%v optimal=%v", y[0], y[1], y[2])
	}
}

func TestFragmentationStudyShape(t *testing.T) {
	o := Quick()
	o.Samples = 4
	res, err := FragmentationStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	exactPkts := seriesY(t, res, "exact/packets", false)
	b1Pkts := seriesY(t, res, "budget1/packets", false)
	exactOver := seriesY(t, res, "exact/overhosts", false)
	b1Over := seriesY(t, res, "budget1/overhosts", false)
	// At zero fragmentation a 256-GPU contiguous rack-aligned group has
	// aligned blocks: few packets, no redundancy.
	if exactOver[0] != 0 {
		t.Fatalf("contiguous placement over-covers: %v", exactOver[0])
	}
	// Fragmentation increases exact-cover packet counts...
	last := len(res.X) - 1
	if exactPkts[last] <= exactPkts[0] {
		t.Fatalf("exact packets did not grow with fragmentation: %v", exactPkts)
	}
	for i := range res.X {
		// ...while budgets hold the packet count down and pay redundancy.
		if b1Pkts[i] > exactPkts[i]+1e-9 && exactPkts[i] > 0 {
			t.Fatalf("budget1 uses more packets than exact at f=%v", res.X[i])
		}
		if b1Over[i]+1e-9 < exactOver[i] {
			t.Fatalf("budget1 over-coverage below exact at f=%v", res.X[i])
		}
	}
	if b1Over[last] <= exactOver[last] {
		t.Fatalf("budget1 should over-cover more than exact at high fragmentation: %v vs %v", b1Over[last], exactOver[last])
	}
}

func TestDeploymentStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := DeploymentStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	bytes := seriesY(t, res, "fabricGB", false)
	// static ≥ tor-filter (drops over-covered fan-out) and
	// static ≥ prog-cores (kills upward duplication after setup).
	if bytes[1] > bytes[0]+1e-9 {
		t.Fatalf("tor-filter increased bytes: %v vs %v", bytes[1], bytes[0])
	}
	if bytes[3] > bytes[0]+1e-9 {
		t.Fatalf("tor+cores increased bytes: %v vs %v", bytes[3], bytes[0])
	}
}

func TestMultipathStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := MultipathStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	mean := seriesY(t, res, "meanCCT", false)
	if len(mean) != 3 {
		t.Fatalf("series %v", mean)
	}
	// Striping must never be catastrophically worse than one tree.
	if mean[2] > 2*mean[0] {
		t.Fatalf("4-tree striping 2x worse than single tree: %v", mean)
	}
}

func TestOptionsNormalization(t *testing.T) {
	var zero Options
	n := zero.normalized()
	d := Defaults()
	if n.Samples != d.Samples || n.Load != d.Load || n.FramesPerMessage != d.FramesPerMessage || n.MaxEvents != d.MaxEvents {
		t.Fatalf("normalized zero != defaults: %+v vs %+v", n, d)
	}
	custom := Options{Samples: 3}.normalized()
	if custom.Samples != 3 || custom.Load != d.Load {
		t.Fatalf("partial options mishandled: %+v", custom)
	}
}

func TestFrameForClamping(t *testing.T) {
	o := Defaults() // 128 frames/message
	if f := o.frameFor(256 << 10); f != 4<<10 {
		t.Fatalf("small message frame=%d want 4KiB floor", f)
	}
	if f := o.frameFor(64 << 20); f != (64<<20)/128 {
		t.Fatalf("mid message frame=%d", f)
	}
	if f := o.frameFor(4 << 30); f != 4<<20 {
		t.Fatalf("huge message frame=%d want 4MiB cap", f)
	}
}

func TestConfigForScalesThresholds(t *testing.T) {
	o := Defaults()
	cfg := o.configFor(64<<20, 1)
	f := cfg.FrameBytes
	if cfg.ECNKmaxBytes != 133*f || cfg.BufferBytes != 8000*f {
		t.Fatalf("thresholds not frame-scaled: %+v", cfg)
	}
	if cfg.ECNKminBytes >= cfg.ECNKmaxBytes {
		t.Fatal("kmin >= kmax")
	}
}

func TestAllGatherStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 3
	res, err := AllGatherStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	ring := seriesY(t, res, "ring", false)
	opt := seriesY(t, res, "optimal-trees", false)
	for i := range res.X {
		if opt[i] >= ring[i] {
			t.Errorf("%vMB: multicast allgather %v !< ring %v", res.X[i], opt[i], ring[i])
		}
	}
}

func TestRailStudyAlignedHalvesLinks(t *testing.T) {
	res, err := RailStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	al := seriesY(t, res, "aligned/tree-links", false)
	ob := seriesY(t, res, "oblivious/tree-links", false)
	for i := range res.X {
		if al[i] >= ob[i] {
			t.Fatalf("aligned %v not below oblivious %v at n=%v", al[i], ob[i], res.X[i])
		}
		// Aligned tree: n hosts + 1 uplink, no spine.
		if al[i] != res.X[i] {
			t.Fatalf("aligned cost %v want %v (hosts + rail uplink)", al[i], res.X[i])
		}
	}
}

func TestLossStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 3
	res, err := LossStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	peel := seriesY(t, res, "peel", false)
	ring := seriesY(t, res, "ring", false)
	// Loss-free: both complete fast; under loss both slow down but
	// complete, and PEEL stays ahead.
	for i := range res.X {
		if peel[i] <= 0 || ring[i] <= 0 {
			t.Fatalf("missing data at loss=%v", res.X[i])
		}
		if peel[i] >= ring[i] {
			t.Errorf("loss=%v: peel %v !< ring %v", res.X[i], peel[i], ring[i])
		}
	}
	last := len(res.X) - 1
	if peel[last] <= peel[0] {
		t.Error("loss did not slow PEEL at all — repair path untested")
	}
}

func TestDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// Identical options must reproduce bit-identical results: the engine
	// breaks ties deterministically and all randomness is seeded.
	o := Quick()
	o.Samples = 3
	run := func() [][]float64 {
		res, err := Fig7(o)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, s := range append(res.Mean, res.P99...) {
			out = append(out, append([]float64(nil), s.Y...))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("non-deterministic result at series %d point %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestDeterministicReplayUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 2
	run := func() []float64 {
		res, err := LossStudy(o)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, s := range res.Mean {
			out = append(out, s.Y...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss path non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestIsolationStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Quick()
	o.Samples = 4
	res, err := IsolationStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	p99 := seriesY(t, res, "victimP99FCT", true)
	idle, peel, ring := p99[0], p99[1], p99[3]
	if !(idle <= peel) {
		t.Errorf("idle baseline %v above peel-aggressed %v", idle, peel)
	}
	if !(peel < ring) {
		t.Errorf("peel aggressor %v not gentler than ring %v on bystanders", peel, ring)
	}
}

// TestStudiesCheckQuiescence pins that every study's runs end with the
// harness's quiescence check: under a fresh suite, each study records
// frame-conservation checks and no violation.
func TestStudiesCheckQuiescence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	studies := []struct {
		name string
		run  func(Options) (*Result, error)
	}{
		{"allgather", AllGatherStudy},
		{"rail", RailStudy},
		{"isolation", IsolationStudy},
	}
	for _, st := range studies {
		var err error
		s := invtest.Capture(t, func() { _, err = st.run(Quick()) })
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if n := s.Checks(invariant.NetFrameConservation); n == 0 {
			t.Errorf("%s: no %s checks recorded", st.name, invariant.NetFrameConservation)
		}
		if v := s.TotalViolations(); v > 0 {
			t.Errorf("%s: %d invariant violations\n%s", st.name, v, s.Report())
		}
	}
}

// TestIsolationReturnsAggressorStartError: an aggressor broadcast that
// fails to start fails the isolation run instead of being dropped.
func TestIsolationReturnsAggressorStartError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	_, err := isolationRun(Quick().normalized(), collective.Scheme("nonesuch"))
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v, want the aggressor's unknown-scheme start error", err)
	}
}
