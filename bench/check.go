package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"peel/internal/topology"
)

// treeChecker validates a served tree against the benchmark's own copy
// of the fabric (ref), which records the failures the benchmark injected;
// it shares no state with the daemon.
type treeChecker struct {
	ref     *topology.Graph
	parent  []topology.NodeID // topology.None when unset
	touched []topology.NodeID
}

func newTreeChecker(ref *topology.Graph) *treeChecker {
	c := &treeChecker{ref: ref, parent: make([]topology.NodeID, ref.NumNodes())}
	for i := range c.parent {
		c.parent[i] = topology.None
	}
	return c
}

// check verifies that edges form a tree rooted at members[0] over live
// links of ref, that every edge hangs off the root, and that every member
// is spanned.
func (c *treeChecker) check(source topology.NodeID, edges [][2]topology.NodeID, members []topology.NodeID) error {
	defer func() {
		for _, n := range c.touched {
			c.parent[n] = topology.None
		}
		c.touched = c.touched[:0]
	}()
	if source != members[0] {
		return fmt.Errorf("tree rooted at %d, want %d", source, members[0])
	}
	n := topology.NodeID(len(c.parent))
	for _, e := range edges {
		p, ch := e[0], e[1]
		if p < 0 || p >= n || ch < 0 || ch >= n {
			return fmt.Errorf("edge %d-%d names no node", p, ch)
		}
		if ch == source || c.parent[ch] != topology.None {
			return fmt.Errorf("node %d has two parents", ch)
		}
		if c.ref.LinkBetween(p, ch) < 0 {
			return fmt.Errorf("edge %d-%d is not a live link", p, ch)
		}
		c.parent[ch] = p
		c.touched = append(c.touched, ch)
	}
	reachesRoot := func(from topology.NodeID) bool {
		for steps := 0; from != source; steps++ {
			if from = c.parent[from]; from == topology.None || steps > len(edges) {
				return false
			}
		}
		return true
	}
	for _, e := range edges {
		if !reachesRoot(e[1]) {
			return fmt.Errorf("node %d is not connected to the source", e[1])
		}
	}
	for _, m := range members[1:] {
		if c.parent[m] == topology.None {
			return fmt.Errorf("member %d not spanned", m)
		}
	}
	return nil
}

// leakSnapshot records what a round must give back: goroutines and
// sockets.
type leakSnapshot struct{ goroutines, sockets int }

func takeLeakSnapshot() leakSnapshot {
	return leakSnapshot{goroutines: runtime.NumGoroutine(), sockets: countSockets()}
}

// countSockets returns the number of open socket descriptors, or -1 where
// /proc is not available.
func countSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if l, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n
}

// check waits up to two seconds for goroutines and sockets to fall back
// to the snapshot: connection goroutines exit asynchronously after their
// socket closes.
func (s leakSnapshot) check() error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		g, socks := runtime.NumGoroutine(), countSockets()
		if g <= s.goroutines && socks <= s.sockets {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak: %d goroutines (was %d), %d sockets (was %d)", g, s.goroutines, socks, s.sockets)
		}
		time.Sleep(time.Millisecond)
	}
}
