package cpu

import (
	"fmt"
	"strings"
)

// FetchPolicy selects how fetch bandwidth is distributed among threads each
// cycle (Section 5.1 of the paper).
type FetchPolicy int

const (
	// RoundRobin fetches from threads in simple rotation.
	RoundRobin FetchPolicy = iota
	// ICOUNT prioritizes the thread with the fewest instructions in the
	// front end and issue queues (Tullsen et al.).
	ICOUNT
	// FetchStall stops fetching from threads with outstanding L2 misses but
	// keeps at least one thread eligible (Tullsen & Brown).
	FetchStall
	// DG (data gating) blocks fetching from threads experiencing data-cache
	// misses (El-Moursy & Albonesi).
	DG
	// DWarn lowers — rather than zeroes — the fetch priority of threads with
	// outstanding data-cache misses; ICOUNT orders threads within each
	// group (Cazorla et al.). The paper's baseline (DWarn.2.8).
	DWarn
	// Coop is the cooperation between the fetch policy and the memory
	// scheduler that the paper's conclusion points to as future work: DWarn
	// grouping, but within the miss group threads are ordered by their
	// pending DRAM request count (fewest first — they will unclog soonest),
	// read live from the memory controller via Config/SetMemPressure.
	Coop
)

var fetchPolicyNames = map[FetchPolicy]string{
	RoundRobin: "rr",
	ICOUNT:     "icount",
	FetchStall: "fetch-stall",
	DG:         "dg",
	DWarn:      "dwarn",
	Coop:       "coop",
}

func (p FetchPolicy) String() string {
	if s, ok := fetchPolicyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("FetchPolicy(%d)", int(p))
}

// ParseFetchPolicy converts a CLI name into a FetchPolicy.
func ParseFetchPolicy(s string) (FetchPolicy, error) {
	for p, name := range fetchPolicyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cpu: unknown fetch policy %q (want one of %s)", s, FetchPolicyNames())
}

// FetchPolicyNames lists the names ParseFetchPolicy accepts, for error and
// usage text.
func FetchPolicyNames() string {
	var names []string
	for p := RoundRobin; p <= Coop; p++ {
		names = append(names, p.String())
	}
	return strings.Join(names, ", ")
}

// FetchPolicies lists the policies in the paper's presentation order
// (Figure 2). Coop, the future-work cooperative policy, is extra.
func FetchPolicies() []FetchPolicy {
	return []FetchPolicy{ICOUNT, FetchStall, DG, DWarn}
}

// canFetch reports whether t may fetch at cycle now: past its mispredict
// penalty, not waiting on an I-cache fill, and with frontend room.
func (c *CPU) canFetch(now uint64, t *thread) bool {
	return t.fetchBlockedUntil <= now && !t.imissPending && t.feLen() < c.cfg.FrontendCap
}

// fetchOrder ranks the candidate threads for this cycle's fetch slots,
// best-first. It never returns ineligible (blocked) threads; under policies
// that exclude miss-bound threads it may return fewer threads than exist.
func (c *CPU) fetchOrder(now uint64) []*thread {
	cands := c.scratchThreads[:0]
	for _, t := range c.threads {
		if c.canFetch(now, t) {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return cands
	}
	switch c.cfg.Policy {
	case RoundRobin:
		c.rotate(cands, c.rrFetch)
		c.rrFetch++
	case ICOUNT:
		sortByICount(cands)
	case FetchStall, DG:
		// Drop threads experiencing a miss (an L2 miss under FetchStall, a
		// data-cache miss under DG; see missAge). FetchStall keeps the
		// ICOUNT-best thread when that would drop everyone.
		kept := cands[:0]
		for _, t := range cands {
			if !c.missing(now, t) {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 && c.cfg.Policy == FetchStall {
			sortByICount(cands)
			return cands[:1]
		}
		sortByICount(kept)
		return kept
	case DWarn, Coop:
		// Two groups: no outstanding data-cache miss first; ICOUNT within.
		// Coop additionally orders the miss group by live DRAM pressure.
		sortByICount(cands)
		clean, miss := cands[:0], c.scratchOrder[:0]
		for _, t := range cands {
			if c.missing(now, t) {
				miss = append(miss, t)
			} else {
				clean = append(clean, t)
			}
		}
		if c.cfg.Policy == Coop && c.memPressure != nil {
			for i := 1; i < len(miss); i++ {
				for j := i; j > 0 && c.memPressure(miss[j].id) < c.memPressure(miss[j-1].id); j-- {
					miss[j], miss[j-1] = miss[j-1], miss[j]
				}
			}
		}
		cands = append(clean, miss...)
		c.scratchOrder = miss
	}
	return cands
}

// icount is the ICOUNT metric: instructions in the front end plus issue
// queues.
func (t *thread) icount() int { return t.feLen() + t.iqInt + t.iqFP }

func sortByICount(ts []*thread) {
	// Insertion sort: the slice is at most 8 threads, and stability keeps
	// thread order deterministic on ties.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && less(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func less(a, b *thread) bool {
	if ai, bi := a.icount(), b.icount(); ai != bi {
		return ai < bi
	}
	return a.id < b.id
}

func (c *CPU) rotate(ts []*thread, by int) {
	if len(ts) < 2 {
		return
	}
	by %= len(ts)
	tmp := append(c.scratchOrder[:0], ts[by:]...)
	tmp = append(tmp, ts[:by]...)
	copy(ts, tmp)
	c.scratchOrder = tmp
}
