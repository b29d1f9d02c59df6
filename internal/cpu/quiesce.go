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
		if t.fetchBlockedUntil > now {
			if t.fetchBlockedUntil < next {
				next = t.fetchBlockedUntil
			}
		} else if !t.imissPending && t.feLen() < c.cfg.FrontendCap {
			return 0, fx, false
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
		// landed work. An ungated thread can still flip its gate on as its
		// oldest load ages past the policy's miss threshold — the flip
		// changes the bookkeeping, so it bounds the skip. A thread that
		// reaches the gate check every skipped cycle contributes its
		// gated-dispatch accounting to the replay terms; the gate's value is
		// constant across the window (every flip trigger bounds the skip),
		// so evaluating at now+1 stands in for every skipped cycle.
		if t.feLen() > 0 {
			if ra := t.frontend[t.feHead].readyAt; ra > now {
				if ra < next {
					next = ra
				}
			} else {
				if gated, flip := c.gateInfo(now, t); !gated {
					if c.couldDispatchHead(t) {
						return 0, fx, false
					}
					if flip > now && flip < next {
						next = flip
					}
				} else if flip > now && flip < next {
					next = flip // the gate may open when its oldest load matures
				}
				if len(c.threads) > 1 { // gateLimit never gates a lone thread
					if gated, _ := c.gateInfo(now+1, t); gated {
						fx.gated |= 1 << uint(i)
					}
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

// gateInfo is the read-only twin of dispatch's gate (gateLimit against the
// thread's issue-queue occupancy). It reports whether the thread's
// dispatch is gated at cycle now and the first cycle the gate's
// value could flip purely by time passing (0 when it cannot): an off gate
// turns on as the oldest in-flight load ages past the policy's miss
// threshold; an on gate turns off when the load holding it open matures.
// The latter is normally event-driven (a fill lands and sets doneAt to the
// current cycle), but the deep-skip path probes at the cycle *before* an
// in-span fill fires, where that load carries doneAt == now+1 and still
// looks live — the maturity bound is what makes the probe land on the cycle
// whose Tick first sees the gate open.
func (c *CPU) gateInfo(now uint64, t *thread) (gated bool, flipAt uint64) {
	n := len(c.threads)
	if n == 1 {
		return false, 0
	}
	total := c.cfg.IntIQ + c.cfg.FPIQ
	switch c.cfg.Policy {
	case FetchStall:
		if t.iqInt+t.iqFP < c.missAllowance(total, n) {
			return false, 0
		}
		issuedAt, doneAt, live := t.oldestLivePeek(now)
		if !live {
			return false, 0
		}
		if now-issuedAt > c.cfg.L1DLatency+c.cfg.L2Latency+4 {
			if doneAt > now && doneAt != pendingDone {
				return true, doneAt
			}
			return true, 0
		}
		return false, issuedAt + c.cfg.L1DLatency + c.cfg.L2Latency + 5
	case DG, DWarn, Coop:
		if t.iqInt+t.iqFP < c.missAllowance(total, n) {
			return false, 0
		}
		issuedAt, doneAt, live := t.oldestLivePeek(now)
		if !live {
			return false, 0
		}
		if now-issuedAt > c.cfg.L1DLatency+2 {
			if doneAt > now && doneAt != pendingDone {
				return true, doneAt
			}
			return true, 0
		}
		return false, issuedAt + c.cfg.L1DLatency + 3
	case ICOUNT, RoundRobin:
		return t.iqInt+t.iqFP >= total/4, 0
	default:
		return false, 0
	}
}

// oldestLivePeek finds the same oldest live in-flight load oldestLoadAge
// would report, without popping matured entries — maturity only moves at
// landed cycles, so the lazily-popped prefix is identical in skipped and
// unskipped runs whenever the next Tick actually observes it. It also
// reports that load's completion cycle (pendingDone while truly in flight;
// one cycle ahead of now right after an in-span fill), which bounds when an
// on gate can open.
func (t *thread) oldestLivePeek(now uint64) (issuedAt, doneAt uint64, live bool) {
	for _, u := range t.inFlight[t.ifHead:] {
		if u.state == stDone || (u.state == stIssued && u.doneAt <= now) || u.in.Kind != workload.Load {
			continue
		}
		return u.issuedAt, u.doneAt, true
	}
	return 0, 0, false
}

// couldDispatchHead mirrors dispatchOne's resource checks without moving
// the instruction: true means the next Tick would dispatch it.
func (c *CPU) couldDispatchHead(t *thread) bool {
	if t.robCount() >= c.cfg.ROBPerThread {
		return false
	}
	in := &t.frontend[t.feHead].in
	if in.Kind == workload.FPOp {
		if c.fpIQUsed >= c.cfg.FPIQ {
			return false
		}
	} else if c.intIQUsed >= c.cfg.IntIQ {
		return false
	}
	switch in.Kind {
	case workload.Load:
		if c.lqUsed >= c.cfg.LQ {
			return false
		}
	case workload.Store:
		if c.sqUsed >= c.cfg.SQ {
			return false
		}
	}
	return true
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
