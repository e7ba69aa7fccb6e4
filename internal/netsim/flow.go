package netsim

import (
	"fmt"
	"slices"

	"peel/internal/dcqcn"
	"peel/internal/invariant"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// ChunkHandler observes per-receiver chunk completions. Collective
// algorithms use it to drive pipelining (forward a chunk once fully
// received) and to detect collective completion.
type ChunkHandler func(receiver topology.NodeID, chunkID int)

// Flow is one paced sender: either a unicast flow along a fixed path or a
// multicast flow over a distribution tree. Frames are injected at the
// DCQCN-controlled rate and travel through the store-and-forward fabric.
type Flow struct {
	net *Network
	id  int

	src  topology.NodeID
	path []topology.NodeID // unicast route (src … dst); nil for multicast
	tree *steiner.Tree     // multicast route; nil for unicast

	// The route's channels, resolved once at creation so forwarding never
	// looks one up. Unicast: pathCh[i] carries path[i]→path[i+1].
	// Multicast: node n's channels to its tree children, in Children()
	// order, are kidCh[kidOff[n]:kidOff[n+1]]. up is the source host's
	// first-hop channel (nil for a tree whose source has no children).
	pathCh []*channel
	kidCh  []*channel
	kidOff []int32
	up     *channel

	// receivers lists the distinct receivers; recv[i] is receivers[i]'s
	// state. recvIdx maps a node ID to that index (−1: not a receiver) for
	// multicast flows; a unicast flow has one receiver and no index.
	receivers []topology.NodeID
	recv      []recvState
	recvIdx   []int32

	sender  *dcqcn.Sender
	onChunk ChunkHandler

	chunks    []chunkState
	frames    int64 // frames needed to inject every queued chunk once
	nextChunk int   // first chunk not fully injected
	offset    int64 // bytes of chunks[nextChunk] already injected
	pacing    bool
	closed    bool

	// BytesInjected counts payload bytes the source has emitted; one
	// multicast injection fans out downstream without re-counting here.
	BytesInjected int64

	// Retransmissions counts repair frames sent under loss.
	Retransmissions int64

	nextSeq int64
	sent    []sentFrame // retransmission buffer (loss recovery)
	repairs bool        // a repair scan is scheduled
	repairQ []sentFrame // repairs awaiting paced injection
}

// sentFrame is the sender's retransmission record for one frame.
type sentFrame struct {
	seq        int64
	chunk      int // index into Flow.chunks
	bytes      int64
	lastRepair sim.Time // last retransmission (suppresses re-repair storms)
}

type chunkState struct {
	id    int
	bytes int64
}

// recvState is one receiver's reassembly state. Sequence numbers and
// chunk indices are dense per flow, so both are plain slices.
type recvState struct {
	chunks []recvChunk // by index into Flow.chunks, grown on first touch
	nDone  int         // chunks fully received
	gotSeq []uint64    // bitset over flow sequence numbers (de-dup under loss recovery)
	lastNP sim.Time
	hasNP  bool
}

type recvChunk struct {
	got  int64 // bytes received
	done bool
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// hasSeq reports whether the receiver already holds frame seq.
func (rs *recvState) hasSeq(seq int64) bool {
	w := int(seq >> 6)
	return w < len(rs.gotSeq) && rs.gotSeq[w]&(1<<(uint(seq)&63)) != 0
}

// markSeq records frame seq; it reports false for a duplicate. The bitset
// grows straight to the flow's planned frame count, not by doubling.
func (rs *recvState) markSeq(seq, planned int64) bool {
	if rs.hasSeq(seq) {
		return false
	}
	w := int(seq >> 6)
	if w >= len(rs.gotSeq) {
		rs.gotSeq = growTo(rs.gotSeq, max(w, int(planned>>6))+1)
	}
	rs.gotSeq[w] |= 1 << (uint(seq) & 63)
	return true
}

// NewUnicastFlow creates a paced flow along the given host-to-host path
// (from routing.ECMPPath). The final path node is the single receiver.
func (n *Network) NewUnicastFlow(path []topology.NodeID, params dcqcn.Params) (*Flow, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("netsim: unicast path needs >=2 nodes")
	}
	if n.G.Node(path[0]).Kind != topology.Host || n.G.Node(path[len(path)-1]).Kind != topology.Host {
		return nil, fmt.Errorf("netsim: unicast path endpoints must be hosts")
	}
	f := &Flow{
		net:       n,
		id:        len(n.flows),
		src:       path[0],
		path:      path,
		pathCh:    make([]*channel, len(path)-1),
		receivers: []topology.NodeID{path[len(path)-1]},
		recv:      make([]recvState, 1),
		sender:    dcqcn.NewSender(params),
	}
	for i := range f.pathCh {
		if f.pathCh[i] = n.Channel(path[i], path[i+1]); f.pathCh[i] == nil {
			return nil, fmt.Errorf("netsim: no channel %d->%d on unicast path", path[i], path[i+1])
		}
	}
	f.up = f.pathCh[0]
	n.flows = append(n.flows, f)
	return f, nil
}

// NewMulticastFlow creates a paced flow over tree; receivers is the subset
// of tree hosts whose delivery counts toward chunk completion (over-covered
// hosts in PEEL's coarse prefixes receive and discard — their traffic is
// modelled, their completion is not awaited).
func (n *Network) NewMulticastFlow(tree *steiner.Tree, receivers []topology.NodeID, params dcqcn.Params) (*Flow, error) {
	if len(receivers) == 0 {
		return nil, fmt.Errorf("netsim: multicast flow needs receivers")
	}
	for _, r := range receivers {
		if !tree.Contains(r) {
			return nil, fmt.Errorf("netsim: receiver %d not in tree", r)
		}
	}
	kids := tree.Children()
	f := &Flow{
		net:       n,
		id:        len(n.flows),
		src:       tree.Source,
		tree:      tree,
		kidCh:     make([]*channel, 0, tree.Cost()),
		kidOff:    make([]int32, len(kids)+1),
		receivers: make([]topology.NodeID, 0, len(receivers)),
		recvIdx:   make([]int32, len(kids)),
		sender:    dcqcn.NewSender(params),
	}
	for at, ks := range kids {
		for _, k := range ks {
			ch := n.Channel(topology.NodeID(at), k)
			if ch == nil {
				return nil, fmt.Errorf("netsim: no channel %d->%d on multicast tree", at, k)
			}
			f.kidCh = append(f.kidCh, ch)
		}
		f.kidOff[at+1] = int32(len(f.kidCh))
	}
	if up := f.kidsOf(f.src); len(up) > 0 {
		f.up = up[0]
	}
	for i := range f.recvIdx {
		f.recvIdx[i] = -1
	}
	for _, r := range receivers {
		if f.recvIdx[r] < 0 {
			f.recvIdx[r] = int32(len(f.receivers))
			f.receivers = append(f.receivers, r)
		}
	}
	f.recv = make([]recvState, len(f.receivers))
	n.flows = append(n.flows, f)
	return f, nil
}

// kidsOf returns the channels from tree node at to its children.
func (f *Flow) kidsOf(at topology.NodeID) []*channel {
	return f.kidCh[f.kidOff[at]:f.kidOff[at+1]]
}

// recvAt returns the reassembly state of receiver at, or nil if at is not
// one of the flow's receivers (an over-covered tree host).
func (f *Flow) recvAt(at topology.NodeID) *recvState {
	if f.recvIdx == nil {
		if at != f.receivers[0] {
			return nil
		}
		return &f.recv[0]
	}
	if i := f.recvIdx[at]; i >= 0 {
		return &f.recv[i]
	}
	return nil
}

// OnChunk registers the completion callback (one registration per flow).
func (f *Flow) OnChunk(h ChunkHandler) { f.onChunk = h }

// Rate exposes the current DCQCN rate (telemetry and tests).
func (f *Flow) Rate() float64 { return f.sender.Rate() }

// Sender exposes the DCQCN state for ablation accounting.
func (f *Flow) Sender() *dcqcn.Sender { return f.sender }

// Send queues a chunk of the given size for transmission. Chunks are
// injected strictly in Send order.
func (f *Flow) Send(chunkID int, bytes int64) {
	if f.closed {
		panic("netsim: Send on closed flow")
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("netsim: chunk %d has %d bytes", chunkID, bytes))
	}
	f.chunks = append(f.chunks, chunkState{id: chunkID, bytes: bytes})
	f.frames += (bytes + f.net.Cfg.FrameBytes - 1) / f.net.Cfg.FrameBytes
	f.kick()
}

// Close stops the flow after the current frame; queued-but-uninjected
// bytes are dropped. Used by PEEL's two-stage refinement when the
// controller-optimized tree takes over mid-collective (§3.3).
func (f *Flow) Close() { f.closed = true }

// Closed reports whether Close was called.
func (f *Flow) Closed() bool { return f.closed }

func (f *Flow) kick() {
	if f.pacing || f.closed || f.nextChunk >= len(f.chunks) {
		return
	}
	f.pacing = true
	f.inject(false)
}

// inject emits one frame and reschedules itself at the paced rate (an
// opInject event). Injection defers while the host uplink queue is full
// (NIC line-rate arbitration across this host's QPs); the drained uplink
// then calls back with fromWake set (an opWake event), and the flow may
// inject even while other flows still wait: it holds the freed slot.
func (f *Flow) inject(fromWake bool) {
	if f.closed || (f.nextChunk >= len(f.chunks) && len(f.repairQ) == 0) {
		f.pacing = false
		if fromWake {
			// The freed NIC slot must not be swallowed by a flow that was
			// closed while waiting: pass the wake along or the remaining
			// waiters sleep forever once the queue drains.
			if f.up != nil {
				f.up.wakeNext()
			}
		}
		return
	}
	// NIC arbitration: a newly-pacing flow joins the waiter FIFO whenever
	// it is non-empty (not only when the queue is full) — otherwise a flow
	// whose pacing timer fires just before the drain-wakeup event at the
	// same tick would steal the freed slot every round and starve the
	// waiters. A woken flow owns the freed slot and bypasses the check.
	if up := f.up; up != nil {
		full := up.qBytes >= f.net.Cfg.HostQueueFrames*f.net.Cfg.FrameBytes
		if full || (!fromWake && up.waiting() > 0) {
			up.waiters = append(up.waiters, f)
			return
		}
	}
	var fr *frame
	var size int64
	if len(f.repairQ) > 0 {
		// Repairs share the paced injection path (and hence the NIC
		// arbitration and DCQCN pacing) with first transmissions.
		sf := f.repairQ[0]
		f.repairQ = f.repairQ[1:]
		size = sf.bytes
		fr = f.net.newFrame()
		*fr = frame{flow: f, chunk: sf.chunk, bytes: sf.bytes, hop: 0, at: f.src, seq: sf.seq}
		f.Retransmissions++
	} else {
		cs := f.chunks[f.nextChunk]
		size = f.net.Cfg.FrameBytes
		if rem := cs.bytes - f.offset; rem < size {
			size = rem
		}
		fr = f.net.newFrame()
		*fr = frame{flow: f, chunk: f.nextChunk, bytes: size, hop: 0, at: f.src, seq: f.nextSeq}
		f.nextSeq++
		// Every frame is retained for selective repeat: random loss needs
		// it from the start, and a link can fail at any later moment. The
		// buffer grows straight to the planned frame count, not by doubling.
		if len(f.sent) == cap(f.sent) {
			f.sent = slices.Grow(f.sent, int(f.frames)-len(f.sent))
		}
		f.sent = append(f.sent, sentFrame{seq: fr.seq, chunk: fr.chunk, bytes: fr.bytes})
		f.BytesInjected += size
		f.offset += size
		if f.offset >= cs.bytes {
			f.nextChunk++
			f.offset = 0
		}
	}
	f.firstHop(fr)
	f.sender.Tick(f.net.Engine.Now())
	if (f.net.Cfg.LossRate > 0 || f.net.faulty) && f.nextChunk >= len(f.chunks) {
		// All original frames injected: arm the selective-repeat repair
		// loop in case losses (random or link-failure) left holes.
		f.armRepairs()
	}
	gap := sim.Time(float64(size*8) / f.sender.Rate() * 1e12)
	if gap < sim.Picosecond {
		gap = sim.Picosecond
	}
	f.net.Engine.AfterCall(gap, f.net, opInject, f)
}

// armRepairs schedules the selective-repeat repair scan if the flow can
// still be missing frames and no scan is already pending. The network
// calls it on every link-state transition; injection calls it once the
// last original frame is out.
func (f *Flow) armRepairs() {
	if f.repairs || f.closed || f.nextChunk < len(f.chunks) || f.Done() {
		return
	}
	f.repairs = true
	f.net.lanes.repair.Call(f.net, opRepairScan, f)
}

// repairScan finds frames some receiver still misses and queues them for
// paced retransmission, once per RTO, until every receiver is whole — the
// selective-repeat recovery the paper inherits from RDMA (§1 fn.1).
// Receiver hole bitsets stand in for the protocol's ACK/NACK bookkeeping;
// duplicates are discarded by sequence number on arrival. Repairs travel
// the original path or tree and share the sender's paced injection (NIC
// arbitration included), so they neither starve nor flood the fabric.
func (f *Flow) repairScan() {
	if f.closed || f.Done() {
		// Allow re-arming: pipelined relays queue further chunks after
		// the current ones complete, and those need repair too.
		f.repairs = false
		return
	}
	// A repair already queued or in flight must be given time to land
	// before the same frame is re-queued.
	now := f.net.Engine.Now()
	cooldown := 4 * f.net.Cfg.RepairRTO
	const maxQueued = 128
	for i := range f.sent {
		if len(f.repairQ) >= maxQueued {
			break
		}
		sf := &f.sent[i]
		if now-sf.lastRepair < cooldown && sf.lastRepair > 0 {
			continue
		}
		needed := false
		for r := range f.recv {
			if !f.recv[r].hasSeq(sf.seq) {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		sf.lastRepair = now
		f.repairQ = append(f.repairQ, *sf)
	}
	if len(f.repairQ) > 0 && !f.pacing {
		f.pacing = true
		f.inject(false)
	}
	f.net.lanes.repair.Call(f.net, opRepairScan, f)
}

// firstHop places a fresh frame on the source host's uplink(s).
func (f *Flow) firstHop(fr *frame) {
	if f.path != nil {
		f.pathCh[0].enqueue(fr)
		return
	}
	f.replicate(fr, f.src)
}

func (f *Flow) cloneFrame(fr *frame) *frame {
	cp := f.net.newFrame()
	*cp = *fr
	return cp
}

// forward routes a frame onward from the switch it is at.
func (f *Flow) forward(fr *frame) {
	if f.path != nil {
		fr.hop++
		// Switches are interior path nodes, so hop+1 is always in range;
		// the checks below catch route/topology inconsistencies early.
		if fr.hop+1 >= len(f.path) || f.path[fr.hop] != fr.at {
			panic(fmt.Sprintf("netsim: unicast frame off path: at %d, hop %d of %v", fr.at, fr.hop, f.path))
		}
		f.pathCh[fr.hop].enqueue(fr)
		return
	}
	f.replicate(fr, fr.at)
}

// replicate sends a multicast frame from tree node at to every child:
// the frame itself rides to the first child, copies to the rest.
func (f *Flow) replicate(fr *frame, at topology.NodeID) {
	kids := f.kidsOf(at)
	if len(kids) == 0 {
		f.net.freeFrame(fr)
		return // over-covered interior with no members below; discard
	}
	for _, ch := range kids[1:] {
		ch.enqueue(f.cloneFrame(fr))
	}
	kids[0].enqueue(fr)
}

// receive consumes a frame at a host: receiver bookkeeping, chunk
// completion callbacks, and CNP generation for ECN-marked frames.
func (f *Flow) receive(fr *frame, at topology.NodeID) {
	// The host consumes the frame on every path below. Its fields are
	// copied out and the frame recycled up front, because the onChunk
	// callback may synchronously inject new frames (relay pipelining) and
	// reuse this slot.
	chunk, bytes, seq, ecn := fr.chunk, fr.bytes, fr.seq, fr.ecn
	f.net.freeFrame(fr)
	rs := f.recvAt(at)
	if rs == nil {
		// Over-covered host: the NIC discards the frame without a QP, so
		// no CNP is generated either (PEEL §3.2).
		return
	}
	if ecn {
		f.noteCongestion(rs)
	}
	if !rs.markSeq(seq, f.frames) {
		return // duplicate repair copy (loss-rate or link-failure repair)
	}
	if chunk >= len(rs.chunks) {
		rs.chunks = growTo(rs.chunks, len(f.chunks))
	}
	rc := &rs.chunks[chunk]
	rc.got += bytes
	// Chunk size is known from the sender's queue; completion is when the
	// receiver holds all bytes of that chunk.
	cs := f.chunks[chunk]
	if s := invariant.Active(); s != nil {
		// Past the per-seq de-dup above, accumulated bytes can never exceed
		// the chunk size — more means duplicate delivery leaked through.
		if rc.got <= cs.bytes {
			f.net.overDeliveryCounter(s).Pass()
		} else {
			s.Violatef(invariant.NetOverDelivery,
				"host %d chunk %d holds %d bytes of %d", at, cs.id, rc.got, cs.bytes)
		}
	}
	if rc.got >= cs.bytes && !rc.done {
		rc.done = true
		rs.nDone++
		if f.onChunk != nil {
			f.onChunk(at, cs.id)
		}
	}
}

// noteCongestion implements the receiver-side NP coalescing: at most one
// CNP per NPInterval per (flow, receiver), delivered to the sender after
// CNPDelay. Whether the sender honors every CNP or applies PEEL's guard
// timer is the DCQCN sender's configuration.
func (f *Flow) noteCongestion(rs *recvState) {
	now := f.net.Engine.Now()
	if rs.hasNP && now-rs.lastNP < f.net.Cfg.NPInterval {
		return
	}
	rs.hasNP = true
	rs.lastNP = now
	f.net.lanes.cnp.Call(f.net, opCNP, f)
}

// Done reports whether every receiver has completed every queued chunk.
func (f *Flow) Done() bool {
	if f.nextChunk < len(f.chunks) {
		return false
	}
	for r := range f.recv {
		if f.recv[r].nDone < len(f.chunks) {
			return false
		}
	}
	return true
}

// ReceivedBytes returns how many payload bytes the receiver has so far
// across all chunks (PEEL+programmable-cores uses it to find the resume
// offset when the refined tree takes over).
func (f *Flow) ReceivedBytes(receiver topology.NodeID) int64 {
	rs := f.recvAt(receiver)
	if rs == nil {
		return 0
	}
	var total int64
	for _, rc := range rs.chunks {
		total += rc.got
	}
	return total
}
