package netsim

import (
	"fmt"
	"math/rand"

	"peel/internal/invariant"
	"peel/internal/sim"
	"peel/internal/telemetry"
	"peel/internal/topology"
)

// Network binds a topology to the event engine and owns every directed
// channel, switch buffer, and active flow.
type Network struct {
	G      *topology.Graph
	Engine *sim.Engine
	// Cfg is the network's configuration. New resolves its fixed delays
	// (PropDelay, SwitchLatency, CNPDelay, RepairRTO and a full frame's
	// serialization time) into engine lanes, so changing them after New
	// does not retime the events that use them.
	Cfg Config
	// lanes are the engine FIFOs of the events due a fixed delay after
	// they are scheduled; everything else goes through the heap.
	lanes struct {
		fullTx  sim.Lane // opFinishTx of a FrameBytes frame
		deliver sim.Lane // opDeliver, after PropDelay
		forward sim.Lane // opForward, after SwitchLatency
		wake    sim.Lane // opWake, at once
		cnp     sim.Lane // opCNP, after CNPDelay
		repair  sim.Lane // opRepairScan, after RepairRTO
	}

	// chans holds both directions of every link, densely: link l's A→B
	// channel is chans[2l], its B→A channel chans[2l+1]. Flows resolve the
	// channels of their route once, at creation; nothing on the per-frame
	// path looks a channel up.
	chans   []channel
	inbound [][]*channel // channels whose destination is this node
	nodes   []nodeState

	flows  []*Flow
	ecnRNG *rand.Rand
	// framePool is the frame free list. Frame ownership is linear — a
	// frame sits in exactly one queue or one in-flight event at a time —
	// so every consumption point (host receive, drop, discard) recycles
	// its frame here and steady-state forwarding allocates no frames.
	framePool []*frame
	// framesLive counts frames allocated but not yet recycled; at quiesce
	// it must be zero (frame-conservation invariant).
	framesLive int64
	// suite/overDelivery cache the active invariant suite's pre-resolved
	// over-delivery counter for the per-frame receive path.
	suite        *invariant.Suite
	overDelivery invariant.Counter
	// tsink/tc likewise cache the active telemetry sink's pre-resolved
	// counters (see telHooks); disabled telemetry costs one atomic load.
	tsink *telemetry.Sink
	tc    telHooks
	// faulty latches once any link transition happened at runtime: it
	// widens the selective-repeat arming condition to cover link-failure
	// drops (not just random loss) without touching failure-free runs.
	faulty bool

	// TotalECNMarks counts marked frames fabric-wide (telemetry).
	TotalECNMarks uint64
	// PFCPauses counts pause assertions (telemetry).
	PFCPauses uint64
	// TotalDrops counts frames lost to the configured loss rate.
	TotalDrops uint64
	// PFCWatchdogFires counts forced resumes of switches stuck in pause —
	// the PFC-storm watchdog production fabrics deploy against circular
	// buffer dependencies.
	PFCWatchdogFires uint64
	// LinkDrops counts frames lost to failed links: queued frames flushed
	// when a link goes down, frames serialized onto a dead wire, and frames
	// enqueued toward a dead channel. Distinct from TotalDrops (random
	// loss): link drops are bursty and correlated. The sender's
	// selective-repeat loop re-sends them once a path exists again (after a
	// heal); outages that outlive the flow need the collective-layer
	// watchdog's tree repair.
	LinkDrops uint64
}

type nodeState struct {
	bufBytes int64 // sum of egress queue bytes (switches only)
	paused   bool  // PFC asserted toward upstream
}

// channel is one direction of a link: a FIFO egress queue at `from`
// serializing toward `to`.
type channel struct {
	net      *Network
	from, to topology.NodeID
	// fromSwitch/toSwitch cache the endpoint kinds: a switch egress marks
	// ECN and accounts shared buffer, a switch ingress can assert PFC.
	fromSwitch, toSwitch bool

	queue   []*frame
	head    int
	qBytes  int64
	sending bool

	// BytesSent accumulates serialized payload bytes (link utilization /
	// aggregate-bandwidth accounting for Fig. 1-style results).
	BytesSent  int64
	FramesSent int64

	// waiters[whead:] are flows blocked on NIC backpressure (host uplinks
	// only), woken round-robin as frames drain. Like queue, it is a FIFO
	// with a head index compacted in place, so sustained backpressure
	// reuses one backing array.
	waiters []*Flow
	whead   int

	// maxQBytes is the queue-depth high-water mark (telemetry).
	maxQBytes int64

	// down mirrors the underlying link's failure state at runtime: a down
	// channel drops every frame offered to it instead of queueing.
	down      bool
	downSince sim.Time
	// dark marks an announced reconfiguration window (fabric retraining):
	// unlike down, a dark channel *defers* — frames queue normally but
	// serialization will not start until the window closes. The planned /
	// unplanned distinction lives exactly here: planned reconfiguration
	// pauses the wire, an unplanned one loses everything in flight.
	dark bool
	// Deferred counts frames that arrived while the channel was dark.
	Deferred int64
	// DownCount / DownTime / Drops are per-direction failure telemetry:
	// down transitions, accumulated down duration, and frames lost on this
	// channel to link failure.
	DownCount int64
	DownTime  sim.Time
	Drops     int64
}

// frame is one simulation quantum of one flow's traffic.
type frame struct {
	flow   *Flow
	ch     *channel // the channel the frame is queued on, serializing on, or just crossed
	chunk  int      // index into flow.chunks
	bytes  int64
	ecn    bool
	hop    int // unicast: index of the node the frame is currently at, within flow.path
	at     topology.NodeID
	seq    int64 // flow-scoped sequence number (loss recovery de-dup)
	pooled bool  // true while the frame sits on the free list
}

// Event op codes. Every per-frame and per-injection step is a typed
// sim event on the Network carrying the *frame or *Flow it concerns, so
// the steady-state data path schedules without allocating.
const (
	opFinishTx   = iota // *frame: serialization on frame.ch completed
	opDeliver           // *frame: propagation over frame.ch completed
	opForward           // *frame: switch forwarding latency at frame.at elapsed
	opInject            // *Flow: paced injection timer
	opWake              // *Flow: a drained uplink hands the flow its freed slot
	opCNP               // *Flow: a congestion notification reaches the sender
	opRepairScan        // *Flow: selective-repeat scan timer
)

// HandleEvent dispatches the network's typed events (sim.Handler).
func (n *Network) HandleEvent(op int, arg any) {
	switch op {
	case opFinishTx:
		f := arg.(*frame)
		f.ch.finishTx(f)
	case opDeliver:
		n.deliver(arg.(*frame))
	case opForward:
		f := arg.(*frame)
		f.flow.forward(f)
	case opInject:
		arg.(*Flow).inject(false)
	case opWake:
		arg.(*Flow).inject(true)
	case opCNP:
		arg.(*Flow).sender.OnCNP(n.Engine.Now())
	case opRepairScan:
		arg.(*Flow).repairScan()
	default:
		panic(fmt.Sprintf("netsim: unknown event op %d", op))
	}
}

// overDeliveryCounter returns the NetOverDelivery slot of suite s,
// re-resolving the cached counter only when the active suite changed.
func (n *Network) overDeliveryCounter(s *invariant.Suite) invariant.Counter {
	if s != n.suite {
		n.suite = s
		n.overDelivery = s.Counter(invariant.NetOverDelivery)
	}
	return n.overDelivery
}

// newFrame returns a zeroed frame from the free list (or a fresh one).
func (n *Network) newFrame() *frame {
	n.framesLive++
	if tc := n.tel(); tc != nil {
		tc.framesAllocated.Inc()
	}
	if len(n.framePool) == 0 {
		return &frame{}
	}
	f := n.framePool[len(n.framePool)-1]
	n.framePool = n.framePool[:len(n.framePool)-1]
	*f = frame{}
	return f
}

// freeFrame recycles a consumed frame. Callers must hold the frame's only
// reference (see framePool); recycling the same frame twice would alias
// two future allocations onto one struct, so it is reported and refused.
func (n *Network) freeFrame(f *frame) {
	if f.pooled {
		invariant.Active().Violatef(invariant.NetFrameRecycle,
			"frame (flow seq=%d chunk=%d at=%d) recycled twice", f.seq, f.chunk, f.at)
		return
	}
	f.pooled = true
	n.framesLive--
	if tc := n.tel(); tc != nil {
		tc.framesConsumed.Inc()
	}
	n.framePool = append(n.framePool, f)
}

// New builds a Network over g. Every link gets a channel pair; channels of
// links failed at construction (or failing later — New subscribes to the
// graph's failure notifications) are marked down and drop all traffic, so
// links can fail and heal *while collectives run*. The config is validated
// first: a bad config is a construction bug and panics.
func New(g *topology.Graph, eng *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		G:       g,
		Engine:  eng,
		Cfg:     cfg,
		chans:   make([]channel, 2*g.NumLinks()),
		inbound: make([][]*channel, g.NumNodes()),
		nodes:   make([]nodeState, g.NumNodes()),
		ecnRNG:  cfg.RNG(SaltECN),
	}
	n.lanes.fullTx = eng.Lane(cfg.txTime(cfg.FrameBytes))
	n.lanes.deliver = eng.Lane(cfg.PropDelay)
	n.lanes.forward = eng.Lane(cfg.SwitchLatency)
	n.lanes.wake = eng.Lane(0)
	n.lanes.cnp = eng.Lane(cfg.CNPDelay)
	n.lanes.repair = eng.Lane(cfg.RepairRTO)
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		for d, dir := range [2][2]topology.NodeID{{l.A, l.B}, {l.B, l.A}} {
			ch := &n.chans[2*i+d]
			*ch = channel{
				net: n, from: dir[0], to: dir[1], down: l.Failed,
				fromSwitch: g.Node(dir[0]).Kind.IsSwitch(), toSwitch: g.Node(dir[1]).Kind.IsSwitch(),
			}
			n.inbound[dir[1]] = append(n.inbound[dir[1]], ch)
		}
	}
	g.OnFailureChange(n.onLinkStateChange)
	return n
}

// linkChans returns both directions of link id (A→B first), or nil for a
// link added to the graph after the network was built.
func (n *Network) linkChans(id topology.LinkID) []channel {
	if i := 2 * int(id); i+2 <= len(n.chans) {
		return n.chans[i : i+2]
	}
	return nil
}

// onLinkStateChange reacts to a runtime topology transition: both
// directional channels of the link go down (flushing their queues) or come
// back up.
func (n *Network) onLinkStateChange(id topology.LinkID, failed bool) {
	n.faulty = true
	pair := n.linkChans(id)
	for i := range pair {
		if failed {
			pair[i].markDown()
		} else {
			pair[i].markUp()
		}
	}
	// Fail/heal transitions rewrite queue and buffer accounting (markDown
	// flushes queues and unwinds bufBytes); re-verify the books right here,
	// where a mistake would first appear.
	if s := invariant.Active(); s != nil {
		n.CheckAccounting(s)
	}
	// A transition creates (failure) or unblocks (heal) frame holes that
	// DCQCN pacing alone never fills: kick every unfinished flow's
	// selective-repeat scan so dropped frames are re-sent once a path
	// exists again. Failure-free runs never reach this, so their event
	// streams are untouched.
	if n.Cfg.RepairRTO <= 0 {
		return
	}
	for _, f := range n.flows {
		f.armRepairs()
	}
}

// markDown transitions the channel to the failed state: queued frames are
// flushed (they were in the dead link's egress queue), buffer accounting is
// unwound (possibly releasing PFC), and NIC-blocked senders are woken so
// their flows drain instead of waiting forever. A frame mid-serialization
// finishes serializing and is dropped at finishTx.
func (ch *channel) markDown() {
	if ch.down {
		return
	}
	n := ch.net
	ch.down = true
	ch.DownCount++
	ch.downSince = n.Engine.Now()

	start := ch.head
	if ch.sending {
		start++ // the in-flight frame is finishTx's to drop
	}
	fromSwitch := ch.fromSwitch
	flushed := int64(len(ch.queue) - start)
	for i := start; i < len(ch.queue); i++ {
		f := ch.queue[i]
		ch.qBytes -= f.bytes
		ch.Drops++
		n.LinkDrops++
		if fromSwitch {
			n.nodes[ch.from].bufBytes -= f.bytes
		}
		ch.queue[i] = nil
		n.freeFrame(f)
	}
	ch.queue = ch.queue[:start]
	if tc := n.tel(); tc != nil {
		tc.linkDrops.Add(flushed)
		tc.rec.Record(n.Engine.Now(), telemetry.KindLinkDown, int64(ch.from), int64(ch.to), flushed)
	}
	if fromSwitch {
		ns := &n.nodes[ch.from]
		if n.Cfg.PFCEnabled && ns.paused && ns.bufBytes <= n.Cfg.pfcResumeThreshold() {
			n.resume(ch.from)
		}
	}
	for _, w := range ch.waiters[ch.whead:] {
		n.lanes.wake.Call(n, opWake, w)
	}
	clear(ch.waiters)
	ch.waiters, ch.whead = ch.waiters[:0], 0
}

// markUp transitions the channel back to service and accounts the outage.
func (ch *channel) markUp() {
	if !ch.down {
		return
	}
	ch.down = false
	ch.DownTime += ch.net.Engine.Now() - ch.downSince
	n := ch.net
	if tc := n.tel(); tc != nil {
		tc.rec.Record(n.Engine.Now(), telemetry.KindLinkUp, int64(ch.from), int64(ch.to), 0)
	}
	ch.maybeSend()
}

// SetLinkDark marks both directions of a link dark (an announced OCS
// retraining window) or clears them. Clearing drains any frames deferred
// during the window. Implements fabric.Darkener.
func (n *Network) SetLinkDark(id topology.LinkID, dark bool) {
	pair := n.linkChans(id)
	for i := range pair {
		if ch := &pair[i]; ch.dark != dark {
			ch.dark = dark
			if !dark {
				ch.maybeSend()
			}
		}
	}
}

// LinkDark reports whether a link's channels are currently dark.
func (n *Network) LinkDark(id topology.LinkID) bool {
	pair := n.linkChans(id)
	return pair != nil && pair[0].dark
}

// LinkDown reports whether a link's channels are currently down.
func (n *Network) LinkDown(id topology.LinkID) bool {
	pair := n.linkChans(id)
	return pair != nil && pair[0].down
}

// LinkDownStats returns a link's failure telemetry: down transitions and
// accumulated down time (per direction; both directions transition
// together, so the A→B channel is representative). An ongoing outage counts
// up to the current simulated time.
func (n *Network) LinkDownStats(id topology.LinkID) (downs int64, downTime sim.Time) {
	pair := n.linkChans(id)
	if pair == nil {
		return 0, 0
	}
	ch := &pair[0]
	downs, downTime = ch.DownCount, ch.DownTime
	if ch.down {
		downTime += n.Engine.Now() - ch.downSince
	}
	return downs, downTime
}

// Channel returns the directed channel from→to (of the highest-numbered
// link, should the two nodes share several), or nil if absent. It walks
// from's adjacency list, so it is for set-up and inspection, not for
// per-frame paths.
func (n *Network) Channel(from, to topology.NodeID) *channel {
	if from < 0 || int(from) >= n.G.NumNodes() {
		return nil
	}
	var found *channel
	for _, he := range n.G.Adj(from) {
		if he.Peer != to {
			continue
		}
		if pair := n.linkChans(he.Link); pair != nil {
			found = &pair[0]
			if found.from != from {
				found = &pair[1]
			}
		}
	}
	return found
}

// BytesOnLink returns the payload bytes serialized on both directions of
// the given link so far.
func (n *Network) BytesOnLink(id topology.LinkID) int64 {
	var total int64
	pair := n.linkChans(id)
	for i := range pair {
		total += pair[i].BytesSent
	}
	return total
}

// TotalBytes returns the payload bytes serialized fabric-wide — the
// aggregate bandwidth consumption the paper's Fig. 1 compares.
func (n *Network) TotalBytes() int64 {
	var total int64
	for i := range n.chans {
		total += n.chans[i].BytesSent
	}
	return total
}

// InFlight reports whether any channel still holds or serializes frames.
func (n *Network) InFlight() bool {
	for i := range n.chans {
		if ch := &n.chans[i]; ch.sending || ch.head < len(ch.queue) {
			return true
		}
	}
	return false
}

// enqueue places a frame on the channel, applying ECN marking at switch
// egress queues and PFC accounting, and starts serialization if idle.
func (ch *channel) enqueue(f *frame) {
	n := ch.net
	f.ch = ch
	if ch.down {
		// Dead link: the frame vanishes. The sender keeps pacing (it has no
		// link-layer feedback, as in real RoCE fabrics); recovery is the
		// collective layer's watchdog, not this queue.
		ch.Drops++
		n.LinkDrops++
		if tc := n.tel(); tc != nil {
			tc.linkDrops.Inc()
			tc.rec.Record(n.Engine.Now(), telemetry.KindFrameDrop, int64(ch.from), int64(ch.to), 1)
		}
		n.freeFrame(f)
		return
	}
	// ECN marking decision uses the queue depth seen on arrival (DCQCN's
	// egress marking), only at switch egress ports.
	if ch.fromSwitch {
		q := ch.qBytes
		cfg := &n.Cfg
		if q > cfg.ECNKmaxBytes {
			f.ecn = true
		} else if q > cfg.ECNKminBytes {
			p := cfg.ECNPmax * float64(q-cfg.ECNKminBytes) / float64(cfg.ECNKmaxBytes-cfg.ECNKminBytes)
			if n.ecnRNG.Float64() < p {
				f.ecn = true
			}
		}
		if f.ecn {
			n.TotalECNMarks++
		}
	}
	ch.queue = append(ch.queue, f)
	ch.qBytes += f.bytes
	if ch.qBytes > ch.maxQBytes {
		ch.maxQBytes = ch.qBytes
	}
	if tc := n.tel(); tc != nil {
		tc.framesEnqueued.Inc()
		if tc.rec.FrameEvents() {
			tc.rec.Record(n.Engine.Now(), telemetry.KindFrameEnqueue, int64(ch.from), int64(ch.to), f.bytes)
		}
	}
	if ch.fromSwitch {
		ns := &n.nodes[ch.from]
		ns.bufBytes += f.bytes
		if n.Cfg.PFCEnabled && !ns.paused && ns.bufBytes > n.Cfg.pfcPauseThreshold() {
			ns.paused = true
			n.PFCPauses++
			n.armPFCWatchdog(ch.from)
		}
	}
	if ch.dark {
		ch.Deferred++
		if tc := n.tel(); tc != nil {
			tc.darkDeferred.Inc()
		}
	}
	ch.maybeSend()
}

// maybeSend begins serializing the head frame if the channel is idle and
// PFC permits: a congested switch asserts pause toward its upstream
// neighbors, so a channel stops starting new frames while its
// *destination* has pause asserted.
func (ch *channel) maybeSend() {
	if ch.down || ch.dark || ch.sending || ch.head >= len(ch.queue) {
		return
	}
	n := ch.net
	if n.Cfg.PFCEnabled && ch.toSwitch && n.nodes[ch.to].paused {
		return // destination asserted PFC pause
	}
	ch.sending = true
	f := ch.queue[ch.head]
	if f.bytes == n.Cfg.FrameBytes {
		n.lanes.fullTx.Call(n, opFinishTx, f)
	} else {
		n.Engine.AfterCall(n.Cfg.txTime(f.bytes), n, opFinishTx, f)
	}
}

// finishTx completes serialization: the frame leaves the queue, buffer
// accounting updates (possibly releasing PFC), the frame propagates, and
// the next queued frame starts.
func (ch *channel) finishTx(f *frame) {
	n := ch.net
	ch.queue[ch.head] = nil
	ch.head++
	if ch.head > 64 && ch.head*2 > len(ch.queue) {
		ch.queue = append(ch.queue[:0], ch.queue[ch.head:]...)
		ch.head = 0
	}
	ch.qBytes -= f.bytes
	ch.sending = false
	if !ch.down {
		ch.BytesSent += f.bytes
		ch.FramesSent++
		if tc := n.tel(); tc != nil {
			tc.framesSent.Inc()
			if tc.rec.FrameEvents() {
				tc.rec.Record(n.Engine.Now(), telemetry.KindFrameDequeue, int64(ch.from), int64(ch.to), f.bytes)
			}
		}
	}

	if ch.fromSwitch {
		ns := &n.nodes[ch.from]
		ns.bufBytes -= f.bytes
		if n.Cfg.PFCEnabled && ns.paused && ns.bufBytes <= n.Cfg.pfcResumeThreshold() {
			n.resume(ch.from)
		}
	}

	if ch.down {
		// The link died under this frame: it was serialized onto a dead
		// wire and is lost.
		ch.Drops++
		n.LinkDrops++
		if tc := n.tel(); tc != nil {
			tc.linkDrops.Inc()
			tc.rec.Record(n.Engine.Now(), telemetry.KindFrameDrop, int64(ch.from), int64(ch.to), 1)
		}
		n.freeFrame(f)
	} else {
		n.lanes.deliver.Call(n, opDeliver, f)
	}
	ch.wakeNext()
	ch.maybeSend()
}

// resume clears a switch's pause and restarts its upstream channels.
func (n *Network) resume(sw topology.NodeID) {
	n.nodes[sw].paused = false
	for _, in := range n.inbound[sw] {
		in.maybeSend()
	}
}

// armPFCWatchdog schedules a stuck-pause check. Global per-switch pause
// (a simulator simplification of per-port PFC) can form circular buffer
// dependencies under extreme backlog; real fabrics break such PFC storms
// with a watchdog that force-resumes the port, and so does this model.
func (n *Network) armPFCWatchdog(sw topology.NodeID) {
	const watchdog = 5 * sim.Millisecond
	n.Engine.After(watchdog, func() {
		if n.nodes[sw].paused {
			n.PFCWatchdogFires++
			n.resume(sw)
		}
	})
}

// wakeNext hands the channel's freed slot to the next backpressured
// sender (round-robin FIFO).
func (ch *channel) wakeNext() {
	if ch.whead == len(ch.waiters) {
		return
	}
	w := ch.waiters[ch.whead]
	ch.waiters[ch.whead] = nil
	ch.whead++
	if ch.whead == len(ch.waiters) {
		ch.waiters, ch.whead = ch.waiters[:0], 0
	} else if ch.whead > 64 && ch.whead*2 > len(ch.waiters) {
		ch.waiters = append(ch.waiters[:0], ch.waiters[ch.whead:]...)
		ch.whead = 0
	}
	ch.net.lanes.wake.Call(ch.net, opWake, w)
}

// waiting returns how many flows are parked on the channel.
func (ch *channel) waiting() int { return len(ch.waiters) - ch.whead }

// deliver hands a frame to the node at the far end of the channel it just
// crossed: hosts consume, switches forward (replicating for multicast)
// after the forwarding latency. Under a configured loss rate, the frame
// may vanish here instead (link error); the sender's repair loop
// retransmits it.
func (n *Network) deliver(f *frame) {
	at := f.ch.to
	if n.Cfg.LossRate > 0 && n.ecnRNG.Float64() < n.Cfg.LossRate {
		n.TotalDrops++
		if tc := n.tel(); tc != nil {
			tc.lossDrops.Inc()
			tc.rec.Record(n.Engine.Now(), telemetry.KindLossDrop, int64(at), 0, f.bytes)
		}
		n.freeFrame(f)
		return
	}
	f.at = at
	if !f.ch.toSwitch {
		if tc := n.tel(); tc != nil {
			tc.framesDelivered.Inc()
		}
		f.flow.receive(f, at)
		return
	}
	n.lanes.forward.Call(n, opForward, f)
}

// Flows returns every flow ever created on this network (telemetry).
func (n *Network) Flows() []*Flow { return n.flows }
