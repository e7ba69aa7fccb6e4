// Package peel is a Go implementation of PEEL (Prefix-Encoded Efficient
// Layering) — scalable datacenter multicast for AI collectives, from
// "One to Many: Closing the Bandwidth Gap in AI Datacenters with Scalable
// Multicast" (HotNets '25).
//
// PEEL rests on two results:
//
//   - Near-optimal multicast trees in polynomial time. On failure-free
//     Clos fabrics the minimum Steiner tree is computed exactly
//     (Lemma 2.1's super-node construction); on asymmetric fabrics the
//     layer-peeling greedy gives an O(min(F,|D|))-approximation (§2.3).
//
//   - Deploy-once, touch-never switch state. Power-of-two prefix rules
//     shrink per-switch multicast state from O(2^k) to exactly k−1
//     pre-installed entries, selected by a <8-byte ⟨prefix,len⟩ packet
//     header (§3.2), with an optional controller-refined exact tree when
//     cores are programmable (§3.3).
//
// This package is the public facade: fabric construction, tree building,
// PEEL group planning, state accounting, and the paper's full evaluation
// harness. The implementation lives in internal/ (topology, routing,
// steiner, prefix, bloom, core, sim, netsim, dcqcn, collective, workload,
// telemetry, controller, chaos, invariant, service, experiments); see
// DESIGN.md for the system map and EXPERIMENTS.md for paper-vs-measured
// results.
//
// Quick start:
//
//	g := peel.FatTree(8)                       // 128-host fabric
//	planner, _ := peel.NewPlanner(g)
//	hosts := g.Hosts()
//	plan, _ := planner.PlanGroup(hosts[0], hosts[1:33])
//	for _, pkt := range plan.Packets {         // one packet per prefix
//	    fmt.Println(pkt.Header.ToR.Format(2), pkt.Receivers)
//	}
package peel

import (
	"math/rand"

	"peel/internal/core"
	"peel/internal/experiments"
	"peel/internal/prefix"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// Fabric types and construction (internal/topology).
type (
	// Graph is a Clos fabric: nodes, links, failure state.
	Graph = topology.Graph
	// NodeID identifies a host or switch in a Graph.
	NodeID = topology.NodeID
	// LinkID identifies a link in a Graph.
	LinkID = topology.LinkID
	// Kind is a node's tier (Host, ToR, Agg, Core, Leaf, Spine).
	Kind = topology.Kind
)

// Node tiers, re-exported for fabric inspection.
const (
	Host  = topology.Host
	ToR   = topology.ToR
	Agg   = topology.Agg
	Core  = topology.Core
	Leaf  = topology.Leaf
	Spine = topology.Spine
)

// FatTree builds a failure-free k-ary fat-tree (k³/4 hosts).
func FatTree(k int) *Graph { return topology.FatTree(k) }

// LeafSpine builds a two-tier leaf–spine fabric.
func LeafSpine(spines, leaves, hostsPerLeaf int) *Graph {
	return topology.LeafSpine(spines, leaves, hostsPerLeaf)
}

// FailRandomSwitchLinks fails the given fraction of switch-to-switch
// links uniformly at random (the paper's Fig. 7 failure model), returning
// the failed link IDs. Runs are reproducible via the caller's RNG.
func FailRandomSwitchLinks(g *Graph, fraction float64, rng *rand.Rand) []LinkID {
	return g.FailRandomFraction(fraction, topology.SwitchLinks, rng)
}

// Multicast trees (internal/steiner).
type (
	// Tree is a multicast distribution tree rooted at a source host.
	Tree = steiner.Tree
	// PeelingStats reports layer-peeling diagnostics (F, switches added).
	PeelingStats = steiner.PeelingStats
)

// BuildTree constructs a multicast tree for src → dests: the provably
// optimal super-node tree on symmetric fabrics, the §2.3 layer-peeling
// greedy under failures.
func BuildTree(g *Graph, src NodeID, dests []NodeID) (*Tree, error) {
	return core.BuildTree(g, src, dests)
}

// LayerPeeling runs the §2.3 greedy directly and returns its diagnostics.
func LayerPeeling(g *Graph, src NodeID, dests []NodeID) (*Tree, PeelingStats, error) {
	return steiner.LayerPeeling(g, src, dests)
}

// ErrUnreachable is the sentinel wrapped by every tree builder when a
// destination has no live path from the source (a degraded fabric cut it
// off). Test with errors.Is to distinguish "this group cannot be served"
// from planner-internal failures.
var ErrUnreachable = steiner.ErrUnreachable

// OptimalTree computes the exact minimum multicast tree on a failure-free
// Clos fabric (Lemma 2.1 generalized to three tiers).
func OptimalTree(g *Graph, src NodeID, dests []NodeID) (*Tree, error) {
	return steiner.SymmetricOptimal(g, src, dests)
}

// ExactSteinerCost returns the exact optimum cost via Dreyfus–Wagner; it
// is exponential in the terminal count and capped at
// steiner.MaxExactTerminals terminals (an optimality yardstick, not a
// routing primitive).
func ExactSteinerCost(g *Graph, src NodeID, dests []NodeID) (int, error) {
	return steiner.ExactSmall(g, src, dests)
}

// SteinerLowerBound returns Lemma 2.4's max(F, |D|) bound.
func SteinerLowerBound(g *Graph, src NodeID, dests []NodeID) (int, error) {
	return steiner.LowerBound(g, src, dests)
}

// PEEL planning (internal/core, internal/prefix).
type (
	// Planner plans PEEL prefix multicast over one fat-tree.
	Planner = core.Planner
	// Plan is a group's send plan: prefix packets plus the optional
	// controller-refined tree.
	Plan = core.Plan
	// Packet is one prefix-addressed copy: header, delivery tree,
	// over-coverage accounting.
	Packet = core.Packet
	// Prefix is one power-of-two aligned identifier block.
	Prefix = prefix.Prefix
	// Header is the ⟨prefix value, prefix length⟩ packet tuple pair.
	Header = prefix.Header
	// RuleTable is the static k−1-entry multicast TCAM of one switch.
	RuleTable = prefix.RuleTable
	// StateSummary reports rules/header/host counts for a fabric degree.
	StateSummary = core.StateSummary
)

// NewPlanner derives the identifier spaces for a fat-tree fabric.
func NewPlanner(g *Graph) (*Planner, error) { return core.NewPlanner(g) }

// StateFor reports the switch-state headline numbers for a k-ary
// fat-tree: k−1 PEEL rules vs 2^(k/2) naive entries, header <8 B.
func StateFor(k int) StateSummary { return core.StateFor(k) }

// NewRuleTable pre-installs the power-of-two rules for a tier with the
// given power-of-two fan-out (e.g. k/2 ToRs per pod).
func NewRuleTable(fanout int) (*RuleTable, error) {
	s, err := prefix.SpaceForFanout(fanout)
	if err != nil {
		return nil, err
	}
	return prefix.NewRuleTable(s)
}

// Evaluation harness (internal/experiments): every figure and headline of
// the paper's §4, regenerable programmatically.
type (
	// ExperimentOptions tunes sample counts and simulation granularity.
	ExperimentOptions = experiments.Options
	// ExperimentResult is one regenerated figure.
	ExperimentResult = experiments.Result
)

// DefaultExperimentOptions returns full-fidelity settings; see
// QuickExperimentOptions for test-scale runs.
func DefaultExperimentOptions() ExperimentOptions { return experiments.Defaults() }

// QuickExperimentOptions returns reduced-fidelity settings.
func QuickExperimentOptions() ExperimentOptions { return experiments.Quick() }

// Experiment runners: one per paper artifact, plus the §2.3/§3.4
// open-question studies this repository adds.
var (
	Fig1               = experiments.Fig1
	Fig3               = experiments.Fig3
	Fig4               = experiments.Fig4
	Fig5               = experiments.Fig5
	Fig6               = experiments.Fig6
	Fig7               = experiments.Fig7
	StateTable         = experiments.StateTable
	GuardAblation      = experiments.GuardAblation
	ApproxStudy        = experiments.ApproxStudy
	BandwidthStudy     = experiments.BandwidthStudy
	FragmentationStudy = experiments.FragmentationStudy
	DeploymentStudy    = experiments.DeploymentStudy
	MultipathStudy     = experiments.MultipathStudy
	// ChaosStudy measures CCT inflation, delivered-byte downtime, and
	// repair counts when links fail mid-flight and the collective layer
	// repairs its trees online (see internal/chaos and
	// internal/collective/recovery.go).
	ChaosStudy = experiments.ChaosStudy
)

// PlanOptions re-exports the §3.4 planning knobs (packet budgets,
// filtering ToRs).
type PlanOptions = core.PlanOptions

// BuildTreeVariant builds the variant-th equal-cost optimal tree on a
// failure-free fabric (multipath striping building block).
func BuildTreeVariant(g *Graph, src NodeID, dests []NodeID, variant uint64) (*Tree, error) {
	return steiner.SymmetricOptimalVariant(g, src, dests, variant)
}
