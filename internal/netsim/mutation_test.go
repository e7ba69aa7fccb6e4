package netsim

import (
	"testing"

	"peel/internal/invariant"
	"peel/internal/invariant/invtest"
	"peel/internal/routing"
	"peel/internal/sim"
	"peel/internal/topology"
)

// Mutation self-tests: corrupt fabric state on purpose and prove the
// corresponding checker fires.

func mutationNet(t *testing.T) (*Network, *topology.Graph) {
	t.Helper()
	g := topology.FatTree(4)
	return New(g, &sim.Engine{}, DefaultConfig()), g
}

func TestMutationDoubleRecycleFires(t *testing.T) {
	s := invtest.Capture(t, func() {
		n, _ := mutationNet(t)
		f := n.newFrame()
		n.freeFrame(f)
		n.freeFrame(f) // second recycle of the same frame
	})
	if s.Violations(invariant.NetFrameRecycle) == 0 {
		t.Fatal("no-double-recycle checker did not fire")
	}
}

func TestMutationLeakedFrameFires(t *testing.T) {
	n, _ := mutationNet(t)
	n.newFrame() // allocated, never consumed
	s := invariant.NewSuite()
	n.CheckQuiesced(s)
	if s.Violations(invariant.NetFrameConservation) == 0 {
		t.Fatal("frame-conservation checker did not fire on a leaked frame")
	}
}

func TestMutationChannelBytesFires(t *testing.T) {
	n, g := mutationNet(t)
	l := g.Link(0)
	n.Channel(l.A, l.B).qBytes += 5 // books no longer match the queue
	s := invariant.NewSuite()
	n.CheckAccounting(s)
	if s.Violations(invariant.NetByteAccounting) == 0 {
		t.Fatal("byte-accounting checker did not fire on corrupted qBytes")
	}
}

func TestMutationSwitchBufferFires(t *testing.T) {
	n, g := mutationNet(t)
	for id := 0; id < g.NumNodes(); id++ {
		if g.Node(topology.NodeID(id)).Kind.IsSwitch() {
			n.nodes[id].bufBytes += 3
			break
		}
	}
	s := invariant.NewSuite()
	n.CheckAccounting(s)
	if s.Violations(invariant.NetByteAccounting) == 0 {
		t.Fatal("byte-accounting checker did not fire on corrupted bufBytes")
	}
}

func TestMutationOverDeliveryFires(t *testing.T) {
	s := invtest.Capture(t, func() {
		n, g := mutationNet(t)
		hosts := g.Hosts()
		src, dst := hosts[0], hosts[1]
		path := routing.ECMPPath(g, src, dst, 1)
		if path == nil {
			t.Fatal("no path between mutation hosts")
		}
		f, err := n.NewUnicastFlow(path, n.Cfg.DCQCN)
		if err != nil {
			t.Fatal(err)
		}
		f.Send(0, 100)
		// Two distinct-seq frames each carrying the whole chunk: the per-seq
		// de-dup passes both, so the second pushes the chunk's byte count past its size.
		for seq := int64(1001); seq <= 1002; seq++ {
			fr := n.newFrame()
			fr.flow, fr.chunk, fr.bytes, fr.seq = f, 0, 100, seq
			f.receive(fr, dst)
		}
	})
	if s.Violations(invariant.NetOverDelivery) == 0 {
		t.Fatal("no-over-delivery checker did not fire on duplicate-byte delivery")
	}
}
