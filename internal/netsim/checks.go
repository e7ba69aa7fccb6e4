package netsim

import (
	"peel/internal/invariant"
	"peel/internal/topology"
)

// CheckAccounting verifies the fabric's byte books against ground truth:
// each channel's qBytes must equal the sum of its queued frames' bytes,
// and each switch's bufBytes must equal the sum of its egress channels'
// qBytes. Called automatically on every fail/heal transition (where the
// accounting is rewritten wholesale) and from CheckQuiesced; it walks
// every channel, so it is not for per-frame paths.
func (n *Network) CheckAccounting(s *invariant.Suite) {
	if s == nil {
		return
	}
	perNode := make([]int64, len(n.nodes))
	for i := range n.chans {
		ch := &n.chans[i]
		var sum int64
		for i := ch.head; i < len(ch.queue); i++ {
			sum += ch.queue[i].bytes
		}
		s.Checkf(invariant.NetByteAccounting, sum == ch.qBytes,
			"channel %d->%d qBytes=%d but queued frames hold %d", ch.from, ch.to, ch.qBytes, sum)
		if ch.fromSwitch {
			perNode[ch.from] += ch.qBytes
		}
	}
	for id := range n.nodes {
		if !n.G.Node(topology.NodeID(id)).Kind.IsSwitch() {
			continue
		}
		s.Checkf(invariant.NetByteAccounting, n.nodes[id].bufBytes == perNode[id],
			"switch %d bufBytes=%d but egress queues hold %d", id, n.nodes[id].bufBytes, perNode[id])
	}
}

// CheckQuiesced verifies the fabric reached a true quiescent state after
// the engine drained: accounting is consistent, no channel is sending or
// holds frames or blocked waiters, and every allocated frame has been
// consumed (frame conservation — a leaked frame means traffic silently
// went missing, a negative count means one was consumed twice).
func (n *Network) CheckQuiesced(s *invariant.Suite) {
	if s == nil {
		return
	}
	n.CheckAccounting(s)
	for i := range n.chans {
		ch := &n.chans[i]
		s.Checkf(invariant.NetFrameConservation,
			!ch.sending && ch.head >= len(ch.queue) && ch.qBytes == 0 && ch.waiting() == 0,
			"channel %d->%d not drained at quiesce: sending=%v queued=%d qBytes=%d waiters=%d",
			ch.from, ch.to, ch.sending, len(ch.queue)-ch.head, ch.qBytes, ch.waiting())
	}
	s.Checkf(invariant.NetFrameConservation, n.framesLive == 0,
		"%d frames allocated but never consumed at quiesce", n.framesLive)
}
