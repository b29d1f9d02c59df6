package core

import "context"

// clock is the run loop's position and the one way to move it: the two-speed
// clock of DESIGN §11. RunContext, WarmupCheckpoint and the lockstep oracle
// all advance a machine through until and step, so the span protocol — probe,
// bound, drain, settle — and the rules that force a landing are each written
// once, here.
type clock struct {
	s *Simulator
	// now is the last landed cycle: the queue is drained through it, the CPU
	// has ticked it, every per-cycle duty up to it is settled.
	now uint64

	limit    uint64 // the cycle budget: nothing lands past it
	wd       uint64 // the watchdog's no-commit window
	skipping bool   // false ticks every cycle (Config.DisableClockSkip)

	// committed and lastCommitAt track the last landed cycle an instruction
	// committed on, which is all the watchdog needs (see tripAt).
	committed, lastCommitAt uint64
}

// newClock stands a clock at the machine's cycle: 0 for a built machine, the
// warmup boundary for one decoded from a checkpoint — by construction a
// committing cycle, so the watchdog's register needs no place in the frame.
func (s *Simulator) newClock() *clock {
	wd := s.cfg.WatchdogCycles
	if wd == 0 {
		wd = 500_000
	}
	return &clock{
		s: s, now: s.at, limit: s.cfg.maxCycles(), wd: wd,
		skipping:  !s.cfg.DisableClockSkip,
		committed: s.cpu.TotalCommitted, lastCommitAt: s.at,
	}
}

// until steps the clock until done reports true or the budget is spent, and
// carries the duties of every landing: cancellation and the progress watchdog
// at 1024-cycle boundaries (one ctx.Err() load per 1024 cycles is noise; a
// machine that commits nothing for wd cycles is livelocked, not slow, and
// aborts with a structured error instead of burning the rest of the budget).
// On an error the clock stands on the cycle that raised it. The instruction
// supply runs ahead only while until does: however it returns, the
// generators stand settled at what the CPU consumed.
func (k *clock) until(ctx context.Context, done func() bool) error {
	s := k.s
	s.sup.Start()
	defer s.sup.Stop()
	for !done() && k.step() {
		if k.now&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if k.now == tripAt(k.lastCommitAt, k.wd) {
				return &NoProgressError{Cycle: k.now, Window: k.wd, Committed: s.cpu.TotalCommitted}
			}
		}
	}
	return nil
}

// step sails across a quiet span if one opens at now, then lands the next
// cycle: its events fire, the CPU ticks, the observer sees it. Once the budget
// is spent it lands nothing, leaves now one past the budget — where a loop
// counting cycles stops, and what a timed-out Result reports — and returns
// false.
func (k *clock) step() bool {
	s := k.s
	// A Tick that made progress is almost never on the edge of a quiet span,
	// so the probe waits for one that comes back idle. Pure heuristic: it can
	// delay a span by a cycle, and landing more is always exact.
	if k.skipping && !s.cpu.Acted() {
		k.sail()
	}
	if k.now >= k.limit {
		k.now = k.limit + 1
		return false
	}
	k.now++
	s.q.RunUntil(k.now)
	s.cpu.Tick(k.now)
	if s.obs != nil {
		s.obs.OnCycle(k.now)
	}
	if c := s.cpu.TotalCommitted; c != k.committed {
		k.committed, k.lastCommitAt = c, k.now
	}
	return true
}

// sail moves now across the quiet span that opens there, if one does, to the
// cycle before the next one that must land. Each round probes the CPU at from
// (every cycle through from is settled): the probe yields the first cycle
// whose Tick could do anything and the per-cycle bookkeeping of the idle Ticks
// before it, read before any in-span event can disturb the state they derive
// from. mustLand bounds the reach, and the queue's span drain fires the events
// below that bound at their exact cycles. A memory-internal event (an MSHR
// chain hop, a controller retry timer, a backoff expiry) changes neither the
// CPU nor the L1s, so the span sails through it. One that delivers CPU-visible
// state — a fill reaching an L1, a branch resolving — wakes the span: the idle
// Ticks through the cycle before it are settled and the next round probes the
// post-event machine, which is what a ticked run's next cycle would see. A fill
// that matures a mid-ROB entry with no ready dependents leaves the CPU as idle
// as before, and the span goes on; otherwise the round finds work at from+1
// and that cycle lands.
func (k *clock) sail() {
	s := k.s
	from := k.now
	for woke := false; ; {
		next, fx, quiet := s.cpu.ProbeQuiet(from)
		if !quiet || next <= from+1 {
			break
		}
		if next == ^uint64(0) {
			// Only a memory-side event can unblock the CPU. Every request
			// outstanding at the controller has its next step scheduled, so an
			// empty queue facing a busy controller is a lost wakeup — a bug,
			// but one that must deadlock identically at both speeds, so tick
			// into it.
			if _, pending := s.q.NextAt(); !pending && s.ctrl.Busy() {
				break
			}
		}
		land := k.mustLand(next)
		if land <= from+1 {
			break
		}
		s.cpu.TakeWake() // events through from already informed the probe
		var ea uint64
		if ea, woke = s.q.DrainQuiet(land, s.cpu.TakeWake); !woke {
			ea = land
		}
		s.cpu.ApplyQuiet(fx, ea-1-from)
		from = ea - 1
		if !woke {
			break
		}
	}
	if from > k.now {
		s.recordSkip(from - k.now)
		k.now = from
	}
}

// mustLand returns the first cycle at or before target that has to land
// because something outside the CPU's own probe needs a landed cycle there.
// It reads and never writes, and every bound it can return lies beyond now,
// so a span bounded by it is a span a ticked run would idle through. Landing
// earlier than necessary is always exact; a new reason to land is one line
// here.
func (k *clock) mustLand(target uint64) uint64 {
	target = min(target, k.limit+1)                    // budget: the run ends there
	target = min(target, tripAt(k.lastCommitAt, k.wd)) // watchdog: the check that trips
	return target
}

// tripAt is the cycle the progress watchdog trips when the last commit
// happened on cycle lastCommitAt. A loop that compares commit counts at every
// multiple of 1024 records the progress at the first boundary at or after the
// commit, up1024(lastCommitAt), and trips at the first boundary a full window
// past that one. Nothing commits inside a quiet span, so the trip cycle cannot
// move while the clock sails: the watchdog needs a bound in mustLand and no
// emulation.
func tripAt(lastCommitAt, wd uint64) uint64 {
	up1024 := func(c uint64) uint64 { return (c + 1023) >> 10 << 10 }
	return up1024(lastCommitAt) + up1024(wd)
}
