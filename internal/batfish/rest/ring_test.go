package rest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ringShares returns the share of the 64-bit key space each shard owns: a
// point owns the arc from its predecessor (exclusive) up to itself.
func ringShares(points []ringPoint, shards int) []float64 {
	shares := make([]float64, shards)
	for i, p := range points {
		prev := points[(i+len(points)-1)%len(points)].hash
		shares[p.shard] += float64(p.hash-prev) / math.Exp2(64)
	}
	return shares
}

// TestRingBalance: over many three-shard fleets on random loopback ports,
// the busiest shard's share of the key space stays close to a third. A
// weakly mixing hash clusters the near-identical virtual-node labels and
// routinely hands one shard more than half the keys.
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const fleets = 500
	busiest := make([]float64, 0, fleets)
	for f := 0; f < fleets; f++ {
		endpoints := make([]string, 0, 3)
		for len(endpoints) < 3 {
			ep := fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64511))
			if !slices.Contains(endpoints, ep) {
				endpoints = append(endpoints, ep)
			}
		}
		shares := ringShares(ringPoints(endpoints), len(endpoints))
		sort.Float64s(shares)
		busiest = append(busiest, shares[len(shares)-1])
	}
	sort.Float64s(busiest)
	median, worst := busiest[fleets/2], busiest[fleets-1]
	t.Logf("busiest shard's key-space share: median %.3f, worst %.3f", median, worst)
	if median > 0.40 || worst > 0.50 {
		t.Errorf("ring is unbalanced: busiest shard owns a median %.3f and at worst %.3f of the key space",
			median, worst)
	}
}
