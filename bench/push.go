package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"peel/internal/service/wire"
	"peel/internal/topology"
)

// svc-push measures the write side of the control plane: a link failure
// posted over HTTP → invalidation → the refresh loop over every watched
// group → steiner.Repair patch → wire encode → socket → client decode.
// Nothing else loads the daemon, so the number is propagation, not
// scheduler queueing.

// pushTimeout is how long a cycle waits for its expected pushes; a push
// later than this counts as missing.
const pushTimeout = time.Second

// subscription is one (connection, group) pair and the last tree that
// connection was sent for the group.
type subscription struct {
	members []topology.NodeID
	gen     uint64
	links   []topology.LinkID // switch–switch links of the last-known tree
	pending bool              // a failure push is expected this cycle
}

type pushEvent struct {
	conn int
	u    wire.TreeUpdate
	at   int64 // nowNs at receipt
}

func runSvcPush(e *env) (_ *round, err error) {
	r := newRound()
	tr := e.tr
	sc := e.scale
	t0 := nowNs()
	op := tr.newOp()
	root := tr.start(op, noSpan, "bench.setup")
	s := tr.start(op, root, "topology.fattree")
	g := topology.FatTree(sc.bigK)
	tr.end(s)
	ref := g.Clone()
	s = tr.start(op, root, "daemon.start")
	p, err := startPeeld(g, 0, true)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, p.stop()) }()
	driver := newClients(1, p.base, ref)
	defer closeClients(driver)
	hc := driver[0]

	s = tr.start(op, root, "daemon.create_groups")
	groups, err := createGroups(hc, stream(e.seed, saltGroups), ref.Hosts(), sc.pushGroups, sc.bigMembers)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	// A watch registered before its group's first tree exists is not
	// primed, and the first failure anywhere then pushes that group's
	// unaffected tree; compute every tree before subscribing.
	s = tr.start(op, root, "daemon.warm")
	for gi, members := range groups {
		if _, err := hc.tree(nil, "GET", groupTreePath(gi), nil, members, false); err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
	}
	tr.end(s)

	// e.nproc wire connections, each subscribed to pushSubs groups; the
	// forwarders stamp every update on receipt.
	// Buffered for one push per subscription plus slack, so a forwarder
	// never waits on the driver while it is inside an HTTP call.
	events := make(chan pushEvent, e.nproc*sc.pushSubs+64)
	conns := make([]*wire.Client, e.nproc)
	var fwd sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		fwd.Wait()
	}()
	subs := make([]map[string]*subscription, e.nproc)
	chk := newTreeChecker(ref)
	use := make([]int32, ref.NumLinks())
	s = tr.start(op, root, "wire.subscribe")
	for ci := range conns {
		c, err := wire.Dial(p.wireAddr, wire.ClientOptions{})
		if err != nil {
			return nil, err
		}
		conns[ci] = c
		fwd.Add(1)
		go func() {
			defer fwd.Done()
			for u := range c.Updates() {
				select {
				case events <- pushEvent{ci, u, nowNs()}:
				case <-stop:
					return
				}
			}
		}()
		subs[ci] = make(map[string]*subscription, sc.pushSubs)
		for i := 0; i < sc.pushSubs; i++ {
			gi := (ci*sc.pushSubs + i) % len(groups)
			gid := "g" + strconv.Itoa(gi)
			sub := &subscription{members: groups[gi]}
			subs[ci][gid] = sub
			if err := c.Subscribe(gid); err != nil {
				return nil, err
			}
			// One subscription at a time: the server answers each with a
			// snapshot through the same bounded queue pushes use.
			select {
			case ev := <-events:
				if ev.u.Group != gid || !ev.u.Resync() {
					return nil, fmt.Errorf("subscribe %s: got %s flags %#x", gid, ev.u.Group, ev.u.Flags)
				}
				if err := adopt(chk, ref, use, sub, &ev.u); err != nil {
					return nil, fmt.Errorf("subscribe %s: %w", gid, err)
				}
			case <-time.After(pushTimeout):
				return nil, fmt.Errorf("subscribe %s: no snapshot within %v", gid, pushTimeout)
			}
		}
	}
	tr.end(s)
	rng := stream(e.seed, saltChaos)
	tr.end(root)
	r.Setup = secondsSince(t0)

	expected, received := 0, 0
	var cand []topology.LinkID
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	r.timed(func() {
		for cycle := 0; cycle < sc.pushCycles; cycle++ {
			// Draw a switch–switch link some subscribed tree uses now,
			// without replacement: a seeded shuffle of the links in use is
			// walked to its end before the next is made, so every seed fails
			// the few links most trees share (and the many that few do) in
			// the same proportion, and the pushes per run barely depend on
			// the seed.
			var link topology.LinkID
			for {
				if len(cand) == 0 {
					for id, n := range use {
						if n > 0 {
							cand = append(cand, topology.LinkID(id))
						}
					}
					rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
				}
				link, cand = cand[len(cand)-1], cand[:len(cand)-1]
				if use[link] > 0 {
					break
				}
			}
			pending := 0
			for _, m := range subs {
				for _, sub := range m {
					for _, l := range sub.links {
						if l == link {
							sub.pending = true
							pending++
							break
						}
					}
				}
			}
			expected += pending
			r.Ops++

			op := tr.newOp()
			root := tr.start(op, noSpan, "bench.cycle")
			ref.FailLink(link)
			t0 := nowNs()
			s := tr.start(op, root, "daemon.chaos_fail")
			cerr := postChaos(hc, link, true)
			tr.end(s)
			s = tr.start(op, root, "wire.await_pushes")
			last := t0
			timer.Reset(pushTimeout)
			for pending > 0 && cerr == nil {
				select {
				case ev := <-events:
					received++
					sub := subs[ev.conn][ev.u.Group]
					if sub == nil {
						cerr = fmt.Errorf("push for %s, which conn %d never subscribed to", ev.u.Group, ev.conn)
						break
					}
					// adopt checks the tree against ref, where link is
					// already down: a tree still crossing it fails. It runs
					// even for a push that should not have come, so later
					// cycles expect the right groups.
					gen := sub.gen
					cerr = adopt(chk, ref, use, sub, &ev.u)
					switch {
					case !sub.pending:
						cerr = fmt.Errorf("unexpected push for %s on conn %d", ev.u.Group, ev.conn)
					case !ev.u.FailureDriven():
						cerr = fmt.Errorf("push for %s lacks the failure flag (flags %#x)", ev.u.Group, ev.u.Flags)
					case ev.u.Gen < gen:
						cerr = fmt.Errorf("push for %s regressed gen %d → %d", ev.u.Group, gen, ev.u.Gen)
					}
					sub.pending = false
					pending--
					last = ev.at
				case <-timer.C:
					cerr = fmt.Errorf("%d pushes missing %v after failing link %d", pending, pushTimeout, link)
				}
			}
			tr.end(s)
			ref.RestoreLink(link)
			s = tr.start(op, root, "daemon.chaos_heal")
			herr := postChaos(hc, link, false)
			tr.end(s)
			tr.end(root)
			if err := errors.Join(cerr, herr); err != nil {
				r.Failed++
				r.note("cycle %d: %v", cycle, err)
				for _, m := range subs {
					for _, sub := range m {
						sub.pending = false
					}
				}
				continue
			}
			r.Lat = append(r.Lat, float64(last-t0)/1e3)
		}
	})

	// Heals never push and every failure push was awaited, so the
	// subscribers must hold exactly the expected frames and no more. (The
	// frames are counted here: the server and client counters tick after
	// the frame is already readable, so they can lag by one.)
	st := p.wire.Stats()
	r.Counts["wire.pushes"] = float64(received)
	r.Counts["wire.shed"] = float64(st.Shed)
	r.Counts["wire.resyncs"] = float64(st.Resyncs)
	var gaps, dropped, regress int64
	for _, c := range conns {
		cst := c.Stats()
		gaps += cst.Gaps
		dropped += cst.Dropped
		regress += cst.Regressions
	}
	r.Counts["wire.gaps"] = float64(gaps)
	r.Counts["wire.dropped"] = float64(dropped)
	patched, fellBack := p.svc.RepairCounts()
	r.Counts["service.patched"] = float64(patched)
	r.Counts["service.fell_back"] = float64(fellBack)
	r.Counts["service.cache_entries"] = float64(p.svc.Stats().CacheEntries)
	if received != expected || st.Shed+st.Resyncs+gaps+dropped+regress != 0 || len(events) != 0 {
		r.failCheck("pushes=%d expected=%d shed=%d resyncs=%d gaps=%d dropped=%d regressions=%d undelivered=%d",
			received, expected, st.Shed, st.Resyncs, gaps, dropped, regress, len(events))
	}
	return r, nil
}

// adopt checks a received tree and makes it the subscription's last-known
// one, keeping the per-link use counts in step.
func adopt(chk *treeChecker, ref *topology.Graph, use []int32, sub *subscription, u *wire.TreeUpdate) error {
	if u.Err != nil {
		return u.Err
	}
	if err := chk.check(u.Source, u.Edges, sub.members); err != nil {
		return err
	}
	for _, l := range sub.links {
		use[l]--
	}
	sub.links = sub.links[:0]
	for _, ed := range u.Edges {
		if id := ref.LinkBetween(ed[0], ed[1]); topology.SwitchLinks(ref, ref.Link(id)) {
			sub.links = append(sub.links, id)
			use[id]++
		}
	}
	sub.gen = u.Gen
	return nil
}

func postChaos(c *client, link topology.LinkID, failed bool) error {
	body := []byte(`{"failed":` + strconv.FormatBool(failed) + `}`)
	status, err := c.do("POST", "/v1/chaos/links/"+strconv.Itoa(int(link)), body)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !bytes.Contains(c.body.Bytes(), []byte(`"changed":true`)) {
		return fmt.Errorf("chaos link %d failed=%v: status %d: %s", link, failed, status, bytes.TrimSpace(c.body.Bytes()))
	}
	return nil
}
