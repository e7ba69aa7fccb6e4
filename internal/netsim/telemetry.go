package netsim

import (
	"fmt"
	"math/bits"
	"sort"

	"peel/internal/sim"
	"peel/internal/topology"
)

// Telemetry aggregates fabric-wide observability counters — the
// cluster-wide telemetry the paper assumes operators already run (§1
// footnote). All quantities are cumulative since Network creation.
type Telemetry struct {
	// TierBytes maps a link tier label ("host-tor", "tor-agg",
	// "agg-core", "leaf-spine", "host-leaf") to payload bytes serialized
	// on links of that tier (both directions).
	TierBytes map[string]int64
	// MaxQueueBytes is the fabric-wide high-water mark of any egress
	// queue.
	MaxQueueBytes int64
	// HotLink identifies the link that carried the most bytes.
	HotLink topology.LinkID
	// HotLinkBytes is the byte count on HotLink.
	HotLinkBytes int64
	// ECNMarks / PFCPauses mirror the Network counters.
	ECNMarks  uint64
	PFCPauses uint64
	// LinkDrops counts frames lost to failed links fabric-wide.
	LinkDrops uint64
	// DownLinks is the number of links currently down.
	DownLinks int
	// LinkDownTime sums accumulated outage time across all links (one
	// direction each; both directions fail together).
	LinkDownTime sim.Time
}

// tierLabel names the tier of a link by its endpoint kinds, with the
// lower tier first.
func tierLabel(a, b topology.Kind) string {
	names := []string{a.String(), b.String()}
	sort.Strings(names)
	return names[0] + "-" + names[1]
}

// Telemetry snapshots the network's counters.
func (n *Network) Telemetry() Telemetry {
	t := Telemetry{
		TierBytes: map[string]int64{},
		ECNMarks:  n.TotalECNMarks,
		PFCPauses: n.PFCPauses,
		LinkDrops: n.LinkDrops,
		HotLink:   -1,
	}
	perLink := map[topology.LinkID]int64{}
	for i := range n.chans {
		ch := &n.chans[i]
		l := n.G.Node(ch.from)
		r := n.G.Node(ch.to)
		t.TierBytes[tierLabel(l.Kind, r.Kind)] += ch.BytesSent
		if ch.maxQBytes > t.MaxQueueBytes {
			t.MaxQueueBytes = ch.maxQBytes
		}
		id := n.G.LinkBetween(ch.from, ch.to)
		if id >= 0 {
			perLink[id] += ch.BytesSent
		}
	}
	for i := 0; i < n.G.NumLinks(); i++ {
		id := topology.LinkID(i)
		if n.LinkDown(id) {
			t.DownLinks++
		}
		_, dt := n.LinkDownStats(id)
		t.LinkDownTime += dt
	}
	for id, b := range perLink {
		if b > t.HotLinkBytes || (b == t.HotLinkBytes && (t.HotLink < 0 || id < t.HotLink)) {
			t.HotLink, t.HotLinkBytes = id, b
		}
	}
	return t
}

// String renders the snapshot for logs and CLI notes.
func (t Telemetry) String() string {
	tiers := make([]string, 0, len(t.TierBytes))
	for k := range t.TierBytes {
		tiers = append(tiers, k)
	}
	sort.Strings(tiers)
	out := ""
	for _, k := range tiers {
		out += fmt.Sprintf("%s=%dB ", k, t.TierBytes[k])
	}
	return fmt.Sprintf("%smaxQ=%dB hotLink=%d(%dB) ecn=%d pfc=%d linkDrops=%d downLinks=%d downTime=%v",
		out, t.MaxQueueBytes, t.HotLink, t.HotLinkBytes, t.ECNMarks, t.PFCPauses,
		t.LinkDrops, t.DownLinks, t.LinkDownTime.Duration())
}

// UtilizationOf returns the average utilization of a directed channel
// over the elapsed simulated time: bytes sent ÷ (rate × time).
func (n *Network) UtilizationOf(from, to topology.NodeID) float64 {
	ch := n.Channel(from, to)
	if ch == nil || n.Engine.Now() == 0 {
		return 0
	}
	capacity := n.Cfg.LinkBps / 8 * n.Engine.Now().Seconds()
	return float64(ch.BytesSent) / capacity
}

// DebugState renders a flow's completion bookkeeping for diagnostics.
func (f *Flow) DebugState() string {
	s := fmt.Sprintf("flow%d done=%v closed=%v chunks=%d nextChunk=%d sent=%d repairs=%v\n",
		f.id, f.Done(), f.closed, len(f.chunks), f.nextChunk, len(f.sent), f.repairs)
	for i, r := range f.receivers {
		rs := &f.recv[i]
		seqs := 0
		for _, w := range rs.gotSeq {
			seqs += bits.OnesCount64(w)
		}
		s += fmt.Sprintf("  recv %d: seqs=%d doneChunks=%d", r, seqs, rs.nDone)
		for c, rc := range rs.chunks {
			s += fmt.Sprintf(" chunk%d=%d/%d", f.chunks[c].id, rc.got, f.chunks[c].bytes)
		}
		s += "\n"
	}
	return s
}

// DebugStalledChannels lists channels holding frames without serializing,
// with their destination's PFC state (deadlock diagnostics).
func (n *Network) DebugStalledChannels() string {
	s := fmt.Sprintf("pfcPauses=%d\n", n.PFCPauses)
	for i := range n.chans {
		ch := &n.chans[i]
		if ch.sending || ch.head >= len(ch.queue) {
			continue
		}
		s += fmt.Sprintf("  stalled %s->%s q=%dB frames=%d dstPaused=%v dstBuf=%dB thresholds pause=%d resume=%d\n",
			n.G.Node(ch.from).Name, n.G.Node(ch.to).Name, ch.qBytes, len(ch.queue)-ch.head,
			n.nodes[ch.to].paused, n.nodes[ch.to].bufBytes,
			n.Cfg.pfcPauseThreshold(), n.Cfg.pfcResumeThreshold())
	}
	return s
}
