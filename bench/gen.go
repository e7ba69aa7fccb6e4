package main

import (
	"math/rand"
	"slices"

	"peel/internal/topology"
)

// Every generated input derives from the -seed flag through these
// helpers; the program under test only ever sees their output.

// pointSeed mixes a base seed with a stream index (splitmix64). It is
// bit-for-bit the derivation internal/experiments uses for sweep points,
// which the Fig5 mirror depends on; the benchmark's own generators use it
// with salts that name their purpose.
func pointSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Salts for the benchmark's generator streams.
const (
	saltGroups   = 1000 // group member sets
	saltRequests = 2000 // per-client request sequences (+ client index)
	saltFailed   = 3000 // pre-failed links
	saltChaos    = 4000 // svc-push link draws
	saltFill     = 5000 // svc-evict cache fill
	saltProbe    = 6000 // per-layer probe inputs
	saltSim      = 7000 // experiment seeds of a simulator round (+ sub-seed index)
)

func stream(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(pointSeed(seed, salt)))
}

// memberGen draws member sets (source first) from a fabric's hosts, never
// returning the same (source, set) twice.
type memberGen struct {
	rng  *rand.Rand
	pool []topology.NodeID
	seen map[string]struct{}
}

func newMemberGen(rng *rand.Rand, hosts []topology.NodeID) *memberGen {
	return &memberGen{rng: rng, pool: slices.Clone(hosts), seen: map[string]struct{}{}}
}

func (m *memberGen) draw(k int) []topology.NodeID {
	for {
		for i := 0; i < k; i++ {
			j := i + m.rng.Intn(len(m.pool)-i)
			m.pool[i], m.pool[j] = m.pool[j], m.pool[i]
		}
		out := slices.Clone(m.pool[:k])
		// The key is the receivers in order, then the source.
		key := slices.Clone(out[1:])
		slices.Sort(key)
		b := make([]byte, 0, 4*k)
		for _, n := range append(key, out[0]) {
			b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		}
		if _, dup := m.seen[string(b)]; !dup {
			m.seen[string(b)] = struct{}{}
			return out
		}
	}
}
