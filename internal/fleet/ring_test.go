package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real shard keys: "sim|" + a Config.Fingerprint.
		keys[i] = fmt.Sprintf("sim|apps=mcf seed=%d warm=2000 target=20000", i)
	}
	return keys
}

// TestRingUniformity: with 128 vnodes the keyspace spreads evenly enough that
// the busiest node sees < 1.25x the share of the idlest, both by arc length
// and by empirical key placement.
func TestRingUniformity(t *testing.T) {
	for _, nodes := range []int{2, 3, 5, 8} {
		names := make([]string, nodes)
		for i := range names {
			names[i] = fmt.Sprintf("w%d", i+1)
		}
		r := NewRing(DefaultVNodes, names...)

		checkSpread := func(what string, shares map[string]float64) {
			t.Helper()
			if len(shares) != nodes {
				t.Fatalf("%d nodes: %s covers %d nodes", nodes, what, len(shares))
			}
			minS, maxS := 2.0, 0.0
			for _, s := range shares {
				if s < minS {
					minS = s
				}
				if s > maxS {
					maxS = s
				}
			}
			if ratio := maxS / minS; ratio >= 1.25 {
				t.Errorf("%d nodes: %s max/min share = %.3f, want < 1.25 (min %.4f max %.4f)",
					nodes, what, ratio, minS, maxS)
			}
		}
		checkSpread("arc share", r.Shares())

		counts := map[string]float64{}
		keys := ringKeys(20000)
		for _, k := range keys {
			owner, ok := r.Owner(k)
			if !ok {
				t.Fatal("no owner on a populated ring")
			}
			counts[owner] += 1 / float64(len(keys))
		}
		checkSpread("key share", counts)
	}
}

// TestRingMinimalRemap: adding a node moves only ~1/N of the keys (all of
// them to the new node), and removing it restores every original owner.
func TestRingMinimalRemap(t *testing.T) {
	r := NewRing(DefaultVNodes, "w1", "w2", "w3")
	keys := ringKeys(10000)
	before := map[string]string{}
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	r.Add("w4")
	moved := 0
	for _, k := range keys {
		now, _ := r.Owner(k)
		if now != before[k] {
			moved++
			if now != "w4" {
				t.Fatalf("key %q moved %s -> %s, not to the joining node", k, before[k], now)
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	// Ideal is 1/4; allow generous slack around vnode placement variance but
	// reject anything resembling a full reshuffle.
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("join remapped %.1f%% of keys, want ~25%%", 100*frac)
	}

	r.Remove("w4")
	for _, k := range keys {
		if now, _ := r.Owner(k); now != before[k] {
			t.Fatalf("key %q did not return to %s after leave (got %s)", k, before[k], now)
		}
	}
}

// TestRingDeterministicOwnership: ownership is a pure function of the member
// set — rebuilding the ring in any insertion order (a restart) reproduces it.
func TestRingDeterministicOwnership(t *testing.T) {
	a := NewRing(DefaultVNodes, "w1", "w2", "w3")
	b := NewRing(DefaultVNodes, "w3", "w1", "w2") // "restart", different order
	c := NewRing(DefaultVNodes, "w2", "w3")
	c.Add("w1") // late join converges to the same placement
	for _, k := range ringKeys(5000) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		oc, _ := c.Owner(k)
		if oa != ob || oa != oc {
			t.Fatalf("key %q owners diverge across rebuilds: %s / %s / %s", k, oa, ob, oc)
		}
	}
	if _, ok := NewRing(0).Owner("k"); ok {
		t.Fatal("empty ring reported an owner")
	}
}
