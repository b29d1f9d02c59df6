package cpu

import (
	"fmt"
	"strings"

	"smtdram/internal/workload"
)

// This file is the CPU half of the two-speed simulation clock (DESIGN §11).
// ProbeQuiet answers "when could Tick next do anything, and what would the
// idle Ticks before then do", and ApplyQuiet replays that fixed per-cycle
// bookkeeping for the cycles the clock then skips. Everything here is
// read-only except ApplyQuiet and TakeWake: the skipped cycles' Ticks never
// run, so probing for quiescence must not perturb state those Ticks would have
// seen.

// ProbeQuiet is the quiescence probe. quiet is false when Tick could do real
// work at now+1 — no window opens, and next and fx are meaningless. Otherwise
// next is the earliest cycle after now at which Tick could do anything beyond
// its fixed per-cycle bookkeeping (cycle/rr counters, parked-retry and
// gated-dispatch accounting — see ApplyQuiet): ^uint64(0) when only a
// memory-side completion event can unblock the core, else the earliest of the
// core's own time triggers — a fetch penalty expiring, a frontend head
// reaching dispatch, a finite execution completing, a dependence becoming
// ready, or a fetch gate flipping (on, which changes the gated-dispatch
// accounting, or off, which lets dispatch proceed). fx is that bookkeeping,
// computed in the same pass over the ready set and the per-thread gates.
//
// The contract is exact, not heuristic: for every cycle m in (now, next),
// Tick(m) would change nothing but the bookkeeping in fx, so the clock may
// replace those Ticks with ApplyQuiet and stay byte-identical to a
// cycle-by-cycle run. It is called at every round of a span, so the shared
// pass is directly on the skip-mode critical path.
func (c *CPU) ProbeQuiet(now uint64) (next uint64, fx QuietFx, quiet bool) {
	if c.psHead < len(c.pendingStores) {
		if !c.l1d.WouldBlock(c.pendingStores[c.psHead].addr) {
			return 0, fx, false // the head store drains (or allocates an MSHR) next cycle
		}
		// The head store is parked on a full MSHR file. Only a landed fill
		// event can change that, so the retry's outcome is constant across
		// any skip window; its lone per-cycle effect — one MSHRFull count —
		// is replayed in aggregate by ApplyQuiet.
		fx.mshrBump++
	}
	next = ^uint64(0)
	for i, t := range c.threads {
		// Fetch: an eligible thread probes the I-cache (or consumes its
		// generator) next cycle; a penalty-blocked one wakes when it ends.
		if c.canFetch(now, t) {
			return 0, fx, false
		}
		if t.fetchBlockedUntil > now && t.fetchBlockedUntil < next {
			next = t.fetchBlockedUntil
		}
		// Commit: a done (or matured) head retires next cycle; a head with
		// a finite completion time retires after it. A head whose doneAt is
		// pendingDone is an in-flight load — only a fill event wakes it. So
		// is a done store facing a full committed-store buffer: commit stalls
		// on it, and the buffer's own head was found parked on the MSHR file
		// above, so nothing drains until a fill lands in the L1D.
		if t.robCount() > 0 {
			u := t.slot(t.headSeq)
			switch {
			case u.state == stDone && u.in.Kind == workload.Store && c.storeBufferFull():
			case u.state == stDone:
				return 0, fx, false
			case u.state == stIssued && u.doneAt != pendingDone:
				if u.doneAt <= now {
					return 0, fx, false
				}
				if u.doneAt < next {
					next = u.doneAt
				}
			}
		}
		// Dispatch: a ready frontend head either dispatches (work), sits
		// gated (pure bookkeeping), or waits on resources freed only by
		// landed work. The gate's verdict can still flip by time alone — on,
		// which starts the gated-dispatch accounting, or off, which lets
		// dispatch proceed — and every flip bounds the skip, so the verdict at
		// now stands for every skipped cycle: a thread gated now accrues its
		// gated-dispatch stat in each of them.
		if t.feLen() > 0 {
			if ra := t.frontend[t.feHead].readyAt; ra > now {
				if ra < next {
					next = ra
				}
			} else {
				limit, flipAt := c.gate(now, t)
				if t.iqInt+t.iqFP >= limit {
					fx.gated |= 1 << uint(i)
				} else if c.canDispatchHead(t) {
					return 0, fx, false
				}
				if flipAt != 0 && flipAt < next {
					next = flipAt
				}
			}
		}
	}
	// Issue: a uop in the ready set whose ready time has arrived issues next
	// cycle — unless it is a load parked on a full MSHR file, whose every
	// retry fails identically until a landed fill event frees an entry; its
	// one observable effect per cycle (an MSHRFull count) is replayed by
	// ApplyQuiet. A later ready time bounds the skip. Uops outside the set
	// wait on a producer only landed work (an issue, a fill) can complete.
	for _, u := range c.ready {
		if u.readyAt > now {
			if u.readyAt < next {
				next = u.readyAt
			}
			continue
		}
		if u.in.Kind == workload.Load && c.l1d.WouldBlock(u.in.Addr) {
			// MSHR-parked: constant retry, replayed in aggregate. issue()
			// always reaches issueLoad for these: Validate guarantees
			// non-empty functional-unit pools, and the failed attempt leaves
			// the issue width untouched, so neither depletes across a quiet
			// window.
			fx.mshrBump++
			continue
		}
		return 0, fx, false
	}
	return next, fx, true
}

// QuietFx is the fixed per-cycle effect of a quiet Tick, captured by
// ProbeQuiet at the start of a skip window while the machine state is exactly
// what every skipped Tick would have seen, and replayed k times by
// ApplyQuiet. Splitting capture from application matters for the deep-skip
// path: the clock fires memory-internal events inside the window, and the
// event that finally ends it (a fill landing in an L1) mutates the very
// state — dependence readiness, L1D occupancy — these terms are derived
// from, so they must be read before any in-window event runs.
type QuietFx struct {
	// mshrBump is the MSHRFull count each skipped Tick would add: one for a
	// head store parked on the full MSHR file plus one per ready load parked
	// the same way.
	mshrBump uint64
	// gated flags the threads (bit i = thread i) whose dispatch would sit
	// gated every skipped cycle. New caps the machine at 64 contexts.
	gated uint64
}

// ApplyQuiet replays fx for k skipped cycles: the cycle counter and the
// round-robin dispatch/commit rotations advance exactly as k Ticks would
// advance them, parked retries accrue their MSHRFull rejections, and gated
// threads accrue their gated-dispatch stat. The fetch rotation is untouched —
// with no fetch-eligible thread, fetchOrder returns before advancing it.
func (c *CPU) ApplyQuiet(fx QuietFx, k uint64) {
	if k == 0 {
		return
	}
	c.Cycles += k
	c.rrDispatch += int(k)
	c.rrCommit += int(k)
	c.l1d.Stats.MSHRFull += k * fx.mshrBump
	if fx.gated == 0 {
		return
	}
	for i, t := range c.threads {
		if fx.gated&(1<<uint(i)) != 0 {
			t.gated += k
		}
	}
}

// TakeWake reports whether any event since the last call delivered
// CPU-visible state (a fill landing in an L1, a branch resolving), clearing
// the flag. The run loop's deep-skip span calls it after each event cycle:
// a clean result proves the cycle's events touched only memory-system
// internals, so the span's quiescence assessment still stands.
func (c *CPU) TakeWake() bool {
	w := c.wake
	c.wake = false
	return w
}

// Fingerprint summarizes every piece of architecturally observable CPU state
// that skipped cycles are forbidden to change — committed counts, queue
// occupancies, per-thread frontend/ROB/epoch state, fetch blocks, squash and
// memory-op counters — excluding only the fixed per-cycle bookkeeping
// ApplyQuiet replays (Cycles, dispatch/commit rotations, gated-cycle stats)
// and lazy internal cleanup nothing observes. The two-speed-clock lockstep
// equivalence tests compare it cycle by cycle between a skipping machine and
// a ticking twin; it is a diagnostic aid, not a stable format.
func (c *CPU) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "committed=%d rrFetch=%d iq=%d/%d lsq=%d/%d ps=%d",
		c.TotalCommitted, c.rrFetch, c.intIQUsed, c.fpIQUsed, c.lqUsed, c.sqUsed,
		len(c.pendingStores)-c.psHead)
	for _, t := range c.threads {
		fmt.Fprintf(&b, " [t%d c=%d fe=%d rob=%d head=%d next=%d ep=%d iq=%d/%d lsq=%d/%d"+
			" fbu=%d imiss=%v iline=%d sq=%d ld=%d st=%d im=%d warm=%d fin=%d]",
			t.id, t.committed, t.feLen(), t.robCount(), t.headSeq, t.nextSeq, t.epoch,
			t.iqInt, t.iqFP, t.lq, t.sq, t.fetchBlockedUntil, t.imissPending, t.curILine,
			t.squashes, t.loads, t.stores, t.imisses, t.warmedAt, t.finishedAt)
	}
	return b.String()
}
