package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"

	"peel/internal/collective"
	"peel/internal/core"
	"peel/internal/dcqcn"
	"peel/internal/netsim"
	"peel/internal/routing"
	"peel/internal/service"
	"peel/internal/service/wire"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/topology"
	"peel/internal/workload"
)

// The layer suite: every per-layer metric except the pure counts a
// workload's own traced rounds produce. It runs, identically, at the end
// of every traced run, feeding each layer's public functions the same
// seeded inputs the workloads generate, so a layer's cost can be set
// against the end-to-end number it is supposed to explain. Nothing here
// is gated; see README.md for which end-to-end metric each one should
// move.

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// medianUs is the median of per-call latencies given in ns, in µs.
func medianUs(ns []float64) float64 { return median(ns) / 1e3 }

func runSuite(e *env, m map[string]float64) error {
	for _, part := range []func(*env, map[string]float64) error{
		probeTopology, probeTrees, probeSimLayers, probeExperiments, probeService, probeDaemonAndWire,
	} {
		runtime.GC()
		if err := part(e, m); err != nil {
			return err
		}
	}
	return nil
}

func probeTopology(e *env, m map[string]float64) error {
	sc := e.scale
	m["topology.fattree16_build_us"] = timeBatches(9, 3, func(int) { sink = topology.FatTree(sc.bigK) }) / 1e3
	m["topology.fattree8_build_us"] = timeBatches(9, 20, func(int) { sink = topology.FatTree(sc.smallK) }) / 1e3
	m["topology.hetero_build_us"] = timeBatches(9, 50, func(i int) {
		sink, _ = topology.HeteroFatTree(topology.DefaultHeteroSpec(pointSeed(e.seed, i%4)))
	}) / 1e3
	g := topology.FatTree(sc.bigK)
	m["topology.clone16_us"] = timeBatches(9, 5, func(int) { sink = g.Clone() }) / 1e3
	return nil
}

// probeTrees covers routing, steiner and core on the inputs of svc-miss
// (32-member sets, 2 % of switch links down), sim-clean (512-GPU
// placements), sim-degraded (256-GPU placements on the 2:1 fabric) and
// svc-push (one tree link failed under a group's tree).
func probeTrees(e *env, m map[string]float64) error {
	sc := e.scale
	const n = 400
	g := topology.FatTree(sc.bigK)
	g.FailRandomFraction(0.02, topology.SwitchLinks, stream(e.seed, saltFailed))
	gen := newMemberGen(stream(e.seed, saltRequests), g.Hosts())
	sets := make([][]topology.NodeID, n)
	for i := range sets {
		sets[i] = gen.draw(sc.bigMembers)
	}
	m["routing.bfs16_us"] = timeBatches(9, n, func(i int) { sink = routing.BFS(g, sets[i%n][0]) }) / 1e3
	trees := make([]*steiner.Tree, n)
	var err error
	m["steiner.peel16_us"] = timeBatches(9, n, func(i int) {
		if t, _, perr := steiner.LayerPeeling(g, sets[i%n][0], sets[i%n][1:]); perr != nil {
			err = perr
		} else {
			trees[i%n] = t
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("peel probe: %w", err)
	}
	a0 := mallocs()
	for i := 0; i < n; i++ {
		sink, _, _ = steiner.LayerPeeling(g, sets[i][0], sets[i][1:])
	}
	m["steiner.peel16_allocs"] = float64(mallocs()-a0) / n
	m["steiner.validate16_us"] = timeBatches(9, n, func(i int) {
		if verr := trees[i%n].Validate(g, sets[i%n][1:]); verr != nil {
			err = verr
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("validate probe: %w", err)
	}

	// Repair: fail one switch link of a clean-fabric tree, patch, heal.
	clean := topology.FatTree(sc.bigK)
	rng := stream(e.seed, saltProbe)
	var repairNs []float64
	patched := 0
	for i := 0; i < n; i++ {
		src, recv := sets[i][0], sets[i][1:]
		old, err := core.BuildTree(clean, src, recv)
		if err != nil {
			return err
		}
		var links []topology.LinkID
		for _, id := range old.Links(clean) {
			if topology.SwitchLinks(clean, clean.Link(id)) {
				links = append(links, id)
			}
		}
		dead := links[rng.Intn(len(links))]
		clean.FailLink(dead)
		t0 := nowNs()
		t, st, err := core.RepairTree(clean, old, dead, recv, steiner.DefaultRepairPolicy())
		repairNs = append(repairNs, float64(nowNs()-t0))
		clean.RestoreLink(dead)
		if err != nil {
			return fmt.Errorf("repair probe: %w", err)
		}
		sink = t
		if !st.FellBack {
			patched++
		}
	}
	m["steiner.repair_us"] = medianUs(repairNs)
	m["steiner.repair_patched_ratio"] = float64(patched) / n

	g8 := topology.FatTree(sc.smallK)
	cl := workload.NewCluster(g8, 8)
	cols, err := cl.Generate(64, 0.3, 100e9, workload.Spec{GPUs: cl.NumGPUs() / 2, Bytes: 2 << 20}, stream(e.seed, saltProbe+1))
	if err != nil {
		return err
	}
	m["steiner.symmetric8_us"] = timeBatches(9, 200, func(i int) {
		c := cols[i%len(cols)]
		sink, err = steiner.SymmetricOptimal(g8, c.Source(), c.Receivers())
	}) / 1e3
	if err != nil {
		return fmt.Errorf("symmetric probe: %w", err)
	}
	planner, err := core.NewPlanner(g8)
	if err != nil {
		return err
	}
	m["core.plan_group_us"] = timeBatches(9, 200, func(i int) {
		c := cols[i%len(cols)]
		sink, err = planner.PlanGroup(c.Source(), c.Receivers())
	}) / 1e3
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}
	over := topology.FatTree(sc.smallK)
	over.Oversubscribe(2)
	quarter, err := workload.NewCluster(over, 8).Generate(64, 0.8, 100e9,
		workload.Spec{GPUs: cl.NumGPUs() / 4, Bytes: 4 << 20}, stream(e.seed, saltProbe+2))
	if err != nil {
		return err
	}
	m["steiner.disjoint4_us"] = timeBatches(9, 50, func(i int) {
		c := quarter[i%len(quarter)]
		sink, _, err = steiner.DisjointTrees(over, c.Source(), c.Receivers(), 4)
	}) / 1e3
	if err != nil {
		return fmt.Errorf("disjoint probe: %w", err)
	}
	return nil
}

// probeSimLayers measures the event engine, the DCQCN state machine and
// netsim forwarding on one flow each, where cost per event and per
// frame-hop can be read off directly.
func probeSimLayers(e *env, m map[string]float64) error {
	sc := e.scale
	// A bare At+Step with 4 096 events pending: each event reschedules
	// itself one heap-width ahead, so depth stays constant.
	eng := &sim.Engine{}
	var tick func()
	tick = func() { eng.After(4096, tick) }
	for i := 0; i < 4096; i++ {
		eng.At(sim.Time(i), tick)
	}
	m["sim.event_ns"] = timeBatches(9, sc.probeIters*50, func(int) { eng.Step() })

	snd := dcqcn.NewSender(dcqcn.DefaultParams())
	now := sim.Time(0)
	m["dcqcn.oncnp_tick_ns"] = timeBatches(9, sc.probeIters*50, func(int) {
		snd.OnCNP(now)
		now += 55 * sim.Microsecond
		snd.Tick(now)
	})

	o := simOptions(e, 1, 0)
	cfg := mirrorConfig(o, 32<<20)
	g := topology.FatTree(sc.smallK)
	m["netsim.new8_us"] = timeBatches(9, 10, func(int) { sink = netsim.New(g, &sim.Engine{}, cfg) }) / 1e3

	chunks := sc.probeIters / 10
	frames := float64(chunks) * float64((32<<20+cfg.FrameBytes-1)/cfg.FrameBytes)
	hosts := g.Hosts()
	path := routing.ECMPPath(g, hosts[0], hosts[len(hosts)-1], 1)
	ueng := &sim.Engine{}
	unet := netsim.New(g, ueng, cfg)
	uf, err := unet.NewUnicastFlow(path, cfg.DCQCN)
	if err != nil {
		return err
	}
	for c := 0; c < chunks; c++ {
		uf.Send(c, 32<<20)
	}
	a0, t0 := mallocs(), nowNs()
	if err := ueng.Run(o.MaxEvents); err != nil {
		return err
	}
	wall, allocs := float64(nowNs()-t0), float64(mallocs()-a0)
	if !uf.Done() {
		return fmt.Errorf("unicast probe flow did not finish")
	}
	hops := frames * float64(len(path)-1)
	m["netsim.unicast_hop_ns"] = wall / hops
	m["netsim.events_per_hop"] = float64(ueng.Processed()) / hops
	m["netsim.allocs_per_hop"] = allocs / hops

	// One PEEL tree to half the fabric's hosts (the 512-GPU broadcast).
	recv := hosts[1 : len(hosts)/2]
	tree, err := core.BuildTree(g, hosts[0], recv)
	if err != nil {
		return err
	}
	meng := &sim.Engine{}
	mnet := netsim.New(g, meng, cfg)
	mf, err := mnet.NewMulticastFlow(tree, recv, cfg.DCQCN)
	if err != nil {
		return err
	}
	mchunks := max(1, chunks/8)
	for c := 0; c < mchunks; c++ {
		mf.Send(c, 32<<20)
	}
	t0 = nowNs()
	if err := meng.Run(o.MaxEvents); err != nil {
		return err
	}
	wall = float64(nowNs() - t0)
	if !mf.Done() {
		return fmt.Errorf("multicast probe flow did not finish")
	}
	m["netsim.mcast_copy_ns"] = wall / (frames / float64(chunks) * float64(mchunks) * float64(tree.Cost()))
	return nil
}

// probeExperiments runs experiments.Fig5 and its span-carrying mirror at
// the sim-clean round's options, and the sim-degraded calls once each.
func probeExperiments(e *env, m map[string]float64) error {
	sc := e.scale
	o := simOptions(e, sc.cleanSamples, 0)
	t0 := nowNs()
	ref, err := fig5Call.fn(o)
	refWall := secondsSince(t0)
	if err != nil {
		return err
	}
	runtime.GC()
	first := len(e.tr.spans)
	mir, err := mirrorFig5(e.tr, o)
	if err != nil {
		return err
	}
	lt := byLayer(e.tr.spans[first:])
	cells, run := lt["experiments.cell"], lt["sim.run"]
	starts := 0.0
	for _, scheme := range collective.AllSchemes {
		st := lt["collective.start."+string(scheme)]
		starts += st.Total
		// Metric names may not hold '+' ("peel+cores").
		m["collective.start_us."+strings.ReplaceAll(string(scheme), "+", "-")] = st.Total / float64(st.Count) * 1e6
	}
	m["collective.start_share"] = starts / cells.Total
	m["experiments.cell_setup_share"] = (cells.Total - run.Total) / cells.Total
	m["experiments.parallel_efficiency"] = cells.Total / (float64(o.Workers) * mir.sweepWall)
	m["experiments.allocs_per_event"] = float64(mir.mallocs) / float64(mir.events)
	m["experiments.gc_pause_ms"] = float64(mir.gcPauseNs) / 1e6
	m["experiments.peel_cct_vs_bound"] = peelVsBound(ref, fig5Call.msgBytes)
	m["sim.events"] = float64(mir.events)
	m["sim.run_self_s"] = run.Self
	m["sim.events_per_s"] = float64(mir.events) / run.Self
	m["netsim.ecn_marks"] = float64(mir.ecnMarks)
	m["netsim.pfc_pauses"] = float64(mir.pfcPauses)
	m["netsim.link_drops"] = float64(mir.linkDrops)
	m["bench.mirror_match"] = 0
	if mir.matches(ref) {
		m["bench.mirror_match"] = 1
	}
	m["bench.mirror_overhead_ratio"] = mir.sweepWall/refWall - 1

	for _, c := range degradedCall {
		runtime.GC()
		op := e.tr.newOp()
		s := e.tr.start(op, noSpan, "experiments."+c.name)
		t0 := nowNs()
		_, err := c.fn(simOptions(e, sc.degradedSamples, 0))
		m["experiments.span_s."+c.name] = secondsSince(t0)
		e.tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeService times the service's public calls in process, on the
// inputs the svc-* workloads send over HTTP.
func probeService(e *env, m map[string]float64) error {
	sc := e.scale
	ctx := context.Background()
	n := sc.probeIters

	// Below cap, then at cap, on svc-evict's fabric and set size.
	small := service.New(topology.FatTree(sc.smallK), service.Options{CacheCap: sc.evictCap})
	defer small.Close()
	gen := newMemberGen(stream(e.seed, saltRequests), small.Graph().Hosts())
	var err error
	treeFor := func(svc *service.Service, g *memberGen, k int) func(int) {
		return func(int) {
			if _, terr := svc.TreeFor(ctx, g.draw(k)); terr != nil {
				err = terr
			}
		}
	}
	m["service.treefor_below_cap_us"] = timeBatches(5, n/5, treeFor(small, gen, sc.smallMembers)) / 1e3
	sets := make([][]topology.NodeID, sc.evictFill)
	for i := range sets {
		sets[i] = gen.draw(sc.smallMembers)
	}
	if ferr := forEach(e.nproc, len(sets), func(i int) error {
		_, err := small.TreeFor(ctx, sets[i])
		return err
	}); ferr != nil {
		return ferr
	}
	m["service.treefor_evict_us"] = timeBatches(5, n/5, treeFor(small, gen, sc.smallMembers)) / 1e3

	// Misses on svc-miss's degraded fabric.
	g := topology.FatTree(sc.bigK)
	g.FailRandomFraction(0.02, topology.SwitchLinks, stream(e.seed, saltFailed))
	miss := service.New(g, service.Options{})
	defer miss.Close()
	mgen := newMemberGen(stream(e.seed, saltRequests), g.Hosts())
	m["service.treefor_miss_us"] = timeBatches(5, n/5, treeFor(miss, mgen, sc.bigMembers)) / 1e3
	if err != nil {
		return fmt.Errorf("TreeFor probe: %w", err)
	}
	keys := make([][]topology.NodeID, 256)
	for i := range keys {
		keys[i] = mgen.draw(sc.bigMembers)
	}
	m["service.canonical_key_ns"] = timeBatches(9, n, func(i int) {
		k := keys[i%len(keys)]
		sink = service.CanonicalKey(k[0], k[1:])
	})

	// Group lifecycle and the failure fan-out on svc-push's groups.
	big := service.New(topology.FatTree(sc.bigK), service.Options{})
	defer big.Close()
	ggen := newMemberGen(stream(e.seed, saltGroups), big.Graph().Hosts())
	groups := make([][]topology.NodeID, sc.pushGroups)
	for i := range groups {
		groups[i] = ggen.draw(sc.bigMembers)
	}
	m["service.create_group_us"] = timeBatches(1, len(groups), func(i int) {
		if _, cerr := big.CreateGroup(ctx, "g"+strconv.Itoa(i), groups[i]); cerr != nil {
			err = cerr
		}
	}) / 1e3
	hosts := big.Graph().Hosts()
	rng := stream(e.seed, saltProbe+3)
	m["service.join_us"] = timeBatches(1, len(groups), func(i int) {
		if _, jerr := big.Join(ctx, "g"+strconv.Itoa(i), hosts[rng.Intn(len(hosts))]); jerr != nil {
			err = jerr
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("group probe: %w", err)
	}
	// One slot per watched group — the most one failure can push — so a
	// callback never blocks the refresher.
	pushed := make(chan struct{}, len(groups))
	for i := range groups {
		if _, err := big.GetTree(ctx, "g"+strconv.Itoa(i)); err != nil {
			return err
		}
		w, err := big.Watch("g"+strconv.Itoa(i), func(service.PushUpdate) { pushed <- struct{}{} })
		if err != nil {
			return err
		}
		defer w.Close()
	}
	var failNs, fanNs []float64
	for cycle := 0; cycle < sc.pushCycles/4; cycle++ {
		// Fail a switch link of one group's current tree; every watched
		// group whose cached tree crosses it must be pushed.
		ti, _ := big.CachedTreeInfo("g" + strconv.Itoa(cycle%len(groups)))
		var links []topology.LinkID
		for _, id := range ti.Tree.Links(big.Graph()) {
			if topology.SwitchLinks(big.Graph(), big.Graph().Link(id)) {
				links = append(links, id)
			}
		}
		dead := links[rng.Intn(len(links))]
		l := big.Graph().Link(dead)
		want := 0
		for i := range groups {
			ti, _ := big.CachedTreeInfo("g" + strconv.Itoa(i))
			if p := ti.Tree.Parent; p[l.A] == l.B || p[l.B] == l.A {
				want++
			}
		}
		t0 := nowNs()
		big.FailLink(dead)
		failNs = append(failNs, float64(nowNs()-t0))
		for ; want > 0; want-- {
			select {
			case <-pushed:
			case <-time.After(pushTimeout):
				return fmt.Errorf("refresh probe: %d pushes missing after failing link %d", want, dead)
			}
		}
		fanNs = append(fanNs, float64(nowNs()-t0))
		big.RestoreLink(dead)
	}
	m["service.faillink_us"] = medianUs(failNs)
	m["service.refresh_fanout_us"] = medianUs(fanNs)
	return nil
}

// probeDaemonAndWire measures the two socket layers on one connection
// each, against a daemon serving svc-hit's groups: the smallest message
// (the per-request floor), a cached tree, and the push codec.
func probeDaemonAndWire(e *env, m map[string]float64) (err error) {
	sc := e.scale
	n := sc.probeIters
	g := topology.FatTree(sc.bigK)
	ref := g.Clone()
	p, err := startPeeld(g, 0, true)
	if err != nil {
		return err
	}
	defer func() {
		if serr := p.stop(); err == nil {
			err = serr
		}
	}()
	cs := newClients(1, p.base, ref)
	defer closeClients(cs)
	c := cs[0]
	groups, err := createGroups(c, stream(e.seed, saltGroups), ref.Hosts(), sc.hitGroups, sc.bigMembers)
	if err != nil {
		return err
	}
	for gi, members := range groups {
		if _, err := c.tree(nil, "GET", groupTreePath(gi), nil, members, false); err != nil {
			return err
		}
	}
	lat := make([]float64, n)
	for i := range lat {
		t0 := nowNs()
		if status, err := c.do("GET", "/healthz", nil); err != nil || status != 200 {
			return fmt.Errorf("healthz: status %d: %v", status, err)
		}
		lat[i] = float64(nowNs() - t0)
	}
	m["daemon.healthz_rtt_us"] = medianUs(lat)

	z := rand.NewZipf(stream(e.seed, saltRequests), 1.3, 1, uint64(len(groups)-1))
	pick := make([]int, n)
	for i := range pick {
		pick[i] = int(z.Uint64())
	}
	ctx := context.Background()
	ids := make([]string, len(groups))
	for gi := range ids {
		ids[gi] = "g" + strconv.Itoa(gi)
	}
	hitNs := timeBatches(9, n, func(i int) {
		sink, err = p.svc.GetTree(ctx, ids[pick[i%n]])
	})
	if err != nil {
		return err
	}
	m["service.gettree_hit_ns"] = hitNs
	bytes := 0
	a0 := mallocs()
	for i := range lat {
		gi := pick[i]
		l, err := c.tree(nil, "GET", groupTreePath(gi), nil, groups[gi], true)
		if err != nil {
			return err
		}
		lat[i] = l * 1e3
		bytes += c.body.Len()
	}
	// Client side included: request construction, transport, decode and
	// checking all allocate in this process too.
	m["daemon.allocs_per_req"] = float64(mallocs()-a0) / float64(n)
	m["daemon.tree_resp_bytes"] = float64(bytes) / float64(n)
	m["daemon.http_overhead_us"] = medianUs(lat) - hitNs/1e3

	ti, err := p.svc.GetTree(ctx, "g0")
	if err != nil {
		return err
	}
	var frame []byte
	m["wire.encode_tree_ns"] = timeBatches(9, n, func(i int) {
		frame = wire.AppendTreeFrame(frame[:0], "g0", ti.Gen, uint64(i), wire.FlagFailure, ti.Tree)
	})
	m["wire.tree_frame_bytes"] = float64(len(frame))
	var u wire.TreeUpdate
	m["wire.decode_tree_ns"] = timeBatches(9, n, func(int) { err = wire.DecodeTree(frame[wire.HeaderLen:], &u) })
	if err != nil {
		return err
	}

	conn, err := net.Dial("tcp", p.wireAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := wire.NewReader(conn)
	var ping []byte
	for i := range lat {
		t0 := nowNs()
		ping = wire.AppendPing(ping[:0], wire.TypePing, uint64(i))
		if _, err := conn.Write(ping); err != nil {
			return err
		}
		f, err := rd.ReadFrame()
		if err != nil || f.Type != wire.TypePong {
			return fmt.Errorf("ping: frame type %d: %v", f.Type, err)
		}
		lat[i] = float64(nowNs() - t0)
	}
	m["wire.ping_rtt_us"] = medianUs(lat)

	wc, err := wire.Dial(p.wireAddr, wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer wc.Close()
	snap := make([]float64, min(len(groups), sc.pushSubs))
	for gi := range snap {
		t0 := nowNs()
		if err := wc.Subscribe("g" + strconv.Itoa(gi)); err != nil {
			return err
		}
		select {
		case u := <-wc.Updates():
			if u.Err != nil || !u.Resync() {
				return fmt.Errorf("subscribe g%d: flags %#x: %v", gi, u.Flags, u.Err)
			}
		case <-time.After(pushTimeout):
			return fmt.Errorf("subscribe g%d: no snapshot", gi)
		}
		snap[gi] = float64(nowNs() - t0)
	}
	m["wire.subscribe_snapshot_us"] = medianUs(snap)
	return nil
}
