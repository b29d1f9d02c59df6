package core

import (
	"context"
	"fmt"
	"strconv"

	"smtdram/internal/addrmap"
	"smtdram/internal/cache"
	"smtdram/internal/cpu"
	"smtdram/internal/event"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/stats"
	"smtdram/internal/workload"
)

// CacheSnapshot is one level's counters at end of run.
type CacheSnapshot struct {
	Name       string
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	MissRate   float64
}

// Result is everything a single simulation measures.
type Result struct {
	// Cycles is the total simulated cycle count.
	Cycles uint64
	// TimedOut is set when MaxCycles elapsed before every thread reached
	// the instruction target; IPCs then reflect partial progress.
	TimedOut bool

	// Per-thread results, index = hardware thread.
	Apps      []string
	Committed []uint64
	IPC       []float64
	Squashes  []uint64

	// Memory-system results.
	MemReads           uint64
	MemWrites          uint64
	MemReadsPer100Inst float64
	AvgReadLatency     float64
	// ThreadAvgReadLatency is the mean DRAM read latency per thread.
	ThreadAvgReadLatency []float64
	RowHits              uint64
	RowClosed            uint64
	RowConflicts         uint64
	RowBufferMissRate    float64
	OutstandingHist      []uint64
	ThreadSpreadHist     []uint64

	// Cache results, L1I/L1D/L2/L3 order.
	Caches []CacheSnapshot

	// Faults summarizes fault injection and the resilience machinery's
	// response (nil on fault-free runs).
	Faults *FaultReport
	// Failover reports the throughput/latency degradation around a
	// mid-run hard channel failure (nil when no channel failed).
	Failover *FailoverReport
}

// FaultReport is the end-of-run fault accounting. The contract is exact:
// Injected == Corrected + Uncorrected + Drops.
type FaultReport struct {
	// Injected faults by class (what the injector did).
	Injected, BitFlips, MultiBit, Drops uint64
	// SEC-DED decoder verdicts (what the ECC saw).
	Detected, Corrected, Uncorrected uint64
	// Controller response: backoff re-queues, reads delivered after
	// exhausting retries, and requests migrated off a failed channel.
	Retries, RetryGiveUps, FailedOver uint64
}

// FailoverReport measures the cost of losing a channel mid-run: whole-machine
// IPC and mean DRAM read latency before the failure cycle versus after it.
type FailoverReport struct {
	// FailedChannel is the hard-failed logical channel.
	FailedChannel int
	// AtCycle is the cycle the failover executed.
	AtCycle uint64
	// PreIPC and PostIPC are committed instructions per cycle summed over
	// threads, before and after the failure.
	PreIPC, PostIPC float64
	// PreAvgReadLat and PostAvgReadLat are the mean DRAM read latencies in
	// cycles on each side of the failure.
	PreAvgReadLat, PostAvgReadLat float64
}

// NoProgressError is returned by Run when the watchdog trips: no instruction
// committed on any thread for Window consecutive cycles. It distinguishes a
// livelocked machine (a bug or a pathological configuration) from a slow one,
// which would otherwise burn the full MaxCycles budget before surfacing.
type NoProgressError struct {
	// Cycle is when the watchdog gave up.
	Cycle uint64
	// Window is the no-commit bound that was exceeded.
	Window uint64
	// Committed is the total instruction count, frozen since the livelock.
	Committed uint64
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("core: no instruction committed in %d cycles (watchdog at cycle %d, %d committed total)",
		e.Window, e.Cycle, e.Committed)
}

// TotalIPC is the sum of per-thread IPCs (the throughput metric).
func (r Result) TotalIPC() float64 {
	var s float64
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// Simulator is an assembled machine, ready to run once.
type Simulator struct {
	cfg  Config
	q    event.Queue
	cpu  *cpu.CPU
	ctrl *memctrl.Controller
	l1i  *cache.Level
	l1d  *cache.Level
	l2   *cache.Level
	l3   *cache.Level
	mb   *cache.MemBackend
	gens []*workload.Gen // nil when cfg.Sources drives the threads
	obs  *obs.Observer
	fsn  *failSnap
	skip obs.SkipStats

	ckpt ckptRegs
}

// ckptRegs is the warmup-checkpoint plumbing (see snapshot.go). armed makes
// RunContext freeze the machine at the warmup boundary, leave the frame in
// data and stop. at, lastCommitted and lastProgress are the run-loop
// registers that cross that boundary — its cycle and the watchdog's progress
// state — which the checkpoint walk serializes: set when the run pauses, and
// in a machine decoded from a checkpoint, where a non-zero at makes
// RunContext continue from that same boundary.
type ckptRegs struct {
	armed                           bool
	data                            []byte
	at, lastCommitted, lastProgress uint64
}

// SkipStats reports how much of the run the two-speed clock fast-forwarded
// (zero when Config.DisableClockSkip was set or no window ever qualified).
func (s *Simulator) SkipStats() obs.SkipStats { return s.skip }

// recordSkip accounts one fast-forwarded span of k cycles.
func (s *Simulator) recordSkip(k uint64) {
	s.skip.Skipped += k
	s.skip.Segments++
	if k > s.skip.Longest {
		s.skip.Longest = k
	}
}

// failSnap freezes the counters the failover report needs at the cycle the
// channel failure executed.
type failSnap struct {
	atCycle   uint64
	committed uint64
	reads     uint64
	latSum    uint64
}

// Observer returns the run's observability attachment (nil when disabled).
func (s *Simulator) Observer() *obs.Observer { return s.obs }

// NewSimulator builds the machine described by cfg.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	if cfg.Observe != nil {
		s.obs = cfg.Observe()
	}

	geo, err := cfg.Mem.Geometry()
	if err != nil {
		return nil, err
	}
	params, err := cfg.Mem.Params()
	if err != nil {
		return nil, err
	}
	mapper, err := addrmap.NewMapper(geo, cfg.Mem.Scheme)
	if err != nil {
		return nil, err
	}
	s.ctrl, err = memctrl.New(&s.q, memctrl.Config{
		Mapper:           mapper,
		Params:           params,
		Policy:           cfg.Mem.Policy,
		QueueDepth:       cfg.Mem.QueueDepth,
		MaxInFlight:      cfg.Mem.MaxInFlight,
		ThreadAwareFirst: cfg.Mem.ThreadAwareFirst,
		Trace:            cfg.Mem.Trace,
		Obs:              s.obs,
		Threads:          len(cfg.Apps),
		Injector:         faults.NewInjector(cfg.Faults),
	})
	if err != nil {
		return nil, err
	}

	l3cfg := cfg.L3
	l3cfg.Perfect = l3cfg.Perfect || cfg.PerfectL3
	l2cfg := cfg.L2
	l2cfg.Perfect = l2cfg.Perfect || cfg.PerfectL2
	l1dcfg := cfg.L1D
	l1icfg := cfg.L1I
	l1dcfg.Perfect = l1dcfg.Perfect || cfg.PerfectL1
	l1icfg.Perfect = l1icfg.Perfect || cfg.PerfectL1

	s.mb = cache.NewMemBackend(&s.q, s.ctrl)
	s.l3, err = cache.New(&s.q, l3cfg, s.mb)
	if err != nil {
		return nil, err
	}
	s.l2, err = cache.New(&s.q, l2cfg, s.l3)
	if err != nil {
		return nil, err
	}
	s.l1d, err = cache.New(&s.q, l1dcfg, s.l2)
	if err != nil {
		return nil, err
	}
	s.l1i, err = cache.New(&s.q, l1icfg, s.l2)
	if err != nil {
		return nil, err
	}
	// Stable level identities for snapshot references (DESIGN §15).
	s.l1i.SetSnapID(0)
	s.l1d.SetSnapID(1)
	s.l2.SetSnapID(2)
	s.l3.SetSnapID(3)

	gens := make([]cpu.Source, len(cfg.Apps))
	for i, name := range cfg.Apps {
		if cfg.Sources != nil {
			gens[i] = cfg.Sources[i]
			continue
		}
		app, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGen(app, i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gens[i] = g
		s.gens = append(s.gens, g)
	}
	s.cpu, err = cpu.New(&s.q, cfg.CPU, gens, s.l1i, s.l1d)
	if err != nil {
		return nil, err
	}
	s.cpu.SetTarget(cfg.WarmupInstr, cfg.TargetInstr)
	s.cpu.SetMemPressure(s.ctrl.Outstanding)
	if s.obs != nil && s.obs.Reg != nil {
		reg := s.obs.Reg
		for _, l := range []*cache.Level{s.l1i, s.l1d, s.l2, s.l3} {
			l.RegisterMetrics(reg)
		}
		s.cpu.RegisterMetrics(reg)
		reg.Gauge("event.fired", func(uint64) float64 { return float64(s.q.Fired()) })
		reg.Gauge("event.past_schedules", func(uint64) float64 { return float64(s.q.PastSchedules()) })
		reg.Gauge("event.max_pending", func(uint64) float64 { return float64(s.q.MaxLen()) })
		reg.Sampled("event.pending", func(uint64) float64 { return float64(s.q.Len()) })
	}
	return s, nil
}

// snapshot captures every cumulative counter at measurement start so warmup
// activity is excluded from results.
type snapshot struct {
	mem       memctrl.Stats
	rowHits   uint64
	rowClosed uint64
	rowConf   uint64
	caches    []cache.Stats
	committed []uint64
	taken     bool
	atCycle   uint64
}

func (s *Simulator) takeSnapshot(now uint64) snapshot {
	sn := snapshot{mem: s.ctrl.Stats, taken: true, atCycle: now}
	sn.rowHits, sn.rowClosed, sn.rowConf = s.ctrl.RowBufferStats()
	for _, l := range []*cache.Level{s.l1i, s.l1d, s.l2, s.l3} {
		sn.caches = append(sn.caches, l.Stats)
	}
	for i := range s.cfg.Apps {
		sn.committed = append(sn.committed, s.cpu.Committed(i))
	}
	return sn
}

// Progress is a mid-run snapshot of the machine, safe to take from the run's
// own goroutine (the serving daemon samples it through an obs.Observer
// Progress hook and streams it to clients). Purely observational: taking a
// snapshot perturbs nothing, so a watched run stays byte-identical to an
// unwatched one.
type Progress struct {
	// Cycle is the current simulated cycle.
	Cycle uint64 `json:"cycle"`
	// Committed is the total committed-instruction count across threads.
	Committed uint64 `json:"committed"`
	// TargetTotal is the whole-run commit goal: threads × (warmup + target).
	TargetTotal uint64 `json:"target_total"`
	// IPC is the whole-run throughput so far (Committed / Cycle).
	IPC float64 `json:"ipc"`
	// Outstanding is the controller's live pending demand-request count.
	Outstanding int `json:"outstanding"`
	// PendingEvents is the event queue's depth.
	PendingEvents int `json:"pending_events"`
	// SkippedCycles and SkipSegments summarize the two-speed clock so far.
	SkippedCycles uint64 `json:"skipped_cycles"`
	SkipSegments  uint64 `json:"skip_segments"`
}

// Progress snapshots the machine at cycle now.
func (s *Simulator) Progress(now uint64) Progress {
	p := Progress{
		Cycle:         now,
		Committed:     s.cpu.TotalCommitted,
		TargetTotal:   uint64(len(s.cfg.Apps)) * (s.cfg.WarmupInstr + s.cfg.TargetInstr),
		PendingEvents: s.q.Len(),
		SkippedCycles: s.skip.Skipped,
		SkipSegments:  s.skip.Segments,
	}
	if now > 0 {
		p.IPC = float64(p.Committed) / float64(now)
	}
	for t := range s.cfg.Apps {
		p.Outstanding += s.ctrl.Outstanding(t)
	}
	return p
}

// Run executes the simulation to completion (every thread warms up and then
// reaches the target, or MaxCycles elapse) and returns measurements covering
// only the post-warmup window.
func (s *Simulator) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked at
// the same 1024-cycle boundaries as the progress watchdog, so an abandoned
// job (an HTTP client that hung up, a deadline that passed) stops burning CPU
// within at most one watchdog window plus the current quiet-window jump. A
// cancelled run returns ctx.Err() after closing its stats and observer
// exactly like a watchdog abort, leaving the simulator in a consistent
// (finished) state.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	limit := s.cfg.maxCycles()
	wd := s.cfg.WatchdogCycles
	if wd == 0 {
		wd = 500_000
	}
	watchFail := s.cfg.Faults != nil && s.cfg.Faults.ChannelFail != nil
	var lastCommitted, lastProgress uint64
	var now uint64
	var sn snapshot
	if s.cfg.WarmupInstr == 0 {
		sn = s.takeSnapshot(0)
	}
	// Serving traces: when the daemon attached a wall-clock run span, open a
	// child per simulation phase so the Perfetto timeline shows where warmup
	// ends and measurement begins in wall time. Spans are observation only —
	// they never feed back into the simulation, so results stay
	// byte-identical with tracing on or off.
	var runSpan, phaseSpan *obs.Span
	if s.obs != nil {
		runSpan = s.obs.RunSpan
	}
	endPhase := func(at uint64) {
		if phaseSpan != nil {
			phaseSpan.SetAttr("end_cycle", strconv.FormatUint(at, 10))
			phaseSpan.End()
			phaseSpan = nil
		}
	}
	if runSpan != nil {
		if sn.taken {
			phaseSpan = runSpan.Child("measure", obs.A("start_cycle", "0"))
		} else {
			phaseSpan = runSpan.Child("warmup", obs.A("start_cycle", "0"))
		}
	}
	// startMeasuring is the warmup transition: every cumulative counter is
	// frozen at cycle at, so results cover only what follows.
	startMeasuring := func(at uint64) {
		s.ctrl.FinishStats(at)
		sn = s.takeSnapshot(at)
		if runSpan != nil {
			endPhase(at)
			phaseSpan = runSpan.Child("measure", obs.A("start_cycle", strconv.FormatUint(at, 10)))
		}
	}
	// closeOut ends the run at cycle at, however it ends — finished, budget
	// spent, cancelled, or aborted by the watchdog: stats and observer are
	// closed the same way, leaving the simulator in a consistent state.
	closeOut := func(at uint64) {
		endPhase(at)
		s.ctrl.FinishStats(at)
		s.skip.Wall = at
		if s.obs != nil {
			s.obs.Skip = s.skip
			s.obs.Finish(at)
		}
	}
	skipping := !s.cfg.DisableClockSkip
	// Deep skip lets a quiet span pass through event cycles whose work is
	// internal to the memory system (an MSHR chain hop, a controller
	// bank-ready retry, a fault-retry backoff expiry) without landing: the
	// events fire at their exact cycles via the queue's span drain, and the
	// span ends only when one delivers CPU-visible state — a fill reaching
	// an L1, a branch resolving — which the caches and CPU report through
	// the wakeup hint (cpu.TakeWake). Observed and failover-watching runs
	// take the same path: loop profiling replays sailed-through event cycles
	// through OnEventCycle and the skipped remainder through OnCycleSkip,
	// registry sampling is bounded by clamp (sample cycles always land), and
	// clamp caps any span crossing the planned channel-failure cycle so the
	// landed failover poll below sees it exactly when a ticked run would.
	//
	// obsFrom/obsFired are the observer replay cursor inside the open span:
	// the last observed cycle and the queue's cumulative event count there.
	var obsFrom, obsFired uint64
	// drainStop is the span drain's per-event-cycle callback: it decides
	// whether the batch at ea delivered CPU-visible state, and keeps the
	// observer's per-cycle accounting exact either way — the quiet gap
	// (obsFrom, ea-1] replays as skipped, and a sailed-through ea is
	// observed as an event cycle. On a wake the cursor stops at ea-1: cycle
	// ea is observed by whichever path lands on or re-opens across it.
	drainStop := func(ea uint64) bool {
		woke := s.cpu.TakeWake()
		if s.obs != nil {
			s.obs.OnCycleSkip(obsFrom, ea-1, obsFired)
			if woke {
				obsFrom = ea - 1
			} else {
				obsFired = s.q.Fired()
				s.obs.OnEventCycle(ea, obsFired)
				obsFrom = ea
			}
		}
		return woke
	}
	// clamp bounds a quiet jump from cycle n: the watchdog's 1024-cycle
	// boundaries are emulated (inside a quiet window nothing commits, so the
	// first skipped boundary would record any progress made since the last
	// check, and the check trips at the first boundary a full watchdog window
	// past lastProgress — replicate the recording and land on the trip
	// boundary, where the landed check fires exactly as the baseline's
	// would), observer sample boundaries force a landing, a still-pending
	// planned channel failure forces a landing on its cycle (the failover
	// snapshot is taken by landed polling), and the jump never exits the
	// cycle budget.
	clamp := func(n, target uint64) uint64 {
		if c := s.cpu.TotalCommitted; c != lastCommitted {
			if b0 := (n>>10 + 1) << 10; target > b0 {
				lastCommitted, lastProgress = c, b0
			}
		}
		if s.cpu.TotalCommitted == lastCommitted {
			if trip := (lastProgress + wd + 1023) >> 10 << 10; trip < target {
				target = trip
			}
		}
		if s.obs != nil {
			if b := s.obs.NextBoundary(); b > 0 && b < target {
				target = b
			}
		}
		if watchFail && s.fsn == nil {
			if fa, ok := s.ctrl.PlannedFailAt(); ok && fa < target {
				target = fa
			}
		}
		if target > limit+1 {
			target = limit + 1
		}
		return target
	}
	// Warmup-checkpoint restore: the checkpoint was taken at the warmup
	// boundary, after its cycle's events and Tick but before the warmup
	// transition, so the resumed loop enters at that cycle and performs only
	// the remainder of its iteration (guarded below) before continuing
	// normally — landing on the exact instruction stream an uninterrupted run
	// would execute.
	resumed := s.ckpt.at > 0
	startAt := uint64(1)
	if resumed {
		startAt = s.ckpt.at
		lastCommitted, lastProgress = s.ckpt.lastCommitted, s.ckpt.lastProgress
	}
	for now = startAt; now <= limit; now++ {
		if resumed {
			resumed = false
			startMeasuring(now)
		} else {
			s.q.RunUntil(now)
			s.cpu.Tick(now)
			if s.obs != nil {
				s.obs.OnCycle(now, s.q.Fired())
			}
			// Progress watchdog: a machine that commits nothing for wd cycles
			// is livelocked, not slow — abort with a structured error instead
			// of burning the remaining MaxCycles budget. Cancellation shares
			// the boundary: one Err() load per 1024 cycles is noise, and a
			// cancelled run unwinds through the same stats/observer close-out
			// as an abort.
			if now&1023 == 0 {
				if err := ctx.Err(); err != nil {
					closeOut(now)
					return Result{}, err
				}
				if c := s.cpu.TotalCommitted; c != lastCommitted {
					lastCommitted, lastProgress = c, now
				} else if now-lastProgress >= wd {
					closeOut(now)
					return Result{}, &NoProgressError{Cycle: now, Window: wd, Committed: c}
				}
			}
			if watchFail && s.fsn == nil {
				if _, at := s.ctrl.Failover(); at > 0 {
					s.fsn = &failSnap{atCycle: now, committed: s.cpu.TotalCommitted,
						reads: s.ctrl.Stats.Reads, latSum: s.ctrl.Stats.ReadLatencySum}
				}
			}
			if !sn.taken && s.cpu.AllWarmed() {
				if s.ckpt.armed {
					// Armed warmup checkpoint: freeze the machine exactly here
					// — before the transition work the resumed run replays —
					// and hand the frame back through the checkpoint registers.
					s.ckpt.armed = false
					s.ckpt.at, s.ckpt.lastCommitted, s.ckpt.lastProgress = now, lastCommitted, lastProgress
					data, err := s.encode()
					if err != nil {
						return Result{}, err
					}
					s.ckpt.data = data
					return Result{}, errPaused
				}
				startMeasuring(now)
			}
		}
		if sn.taken && s.cpu.AllFinished() {
			break
		}
		if !skipping {
			continue
		}

		// Two-speed clock (DESIGN §11): when neither the event queue nor the
		// CPU can do anything before some future cycle, replace the
		// intervening Ticks with their aggregate bookkeeping and land the
		// loop directly on that cycle. Every per-cycle duty above is either
		// replayed in aggregate (cycle counters, gated-dispatch accounting,
		// loop profiling) or provably inert across a quiet window (warmup,
		// finish, and failover transitions all require landed work), and the
		// watchdog's 1024-cycle boundaries are emulated below — so a skipped
		// run is byte-identical to an unskipped one.
		if s.cpu.Acted() {
			// The Tick above made real progress, so the machine is almost
			// never on the edge of a quiet window — defer the (expensive)
			// quiescence probe until a Tick comes back idle. Pure heuristic:
			// it can only delay a window's start by a cycle, never skip a
			// cycle the contract would forbid.
			continue
		}
		// One fused probe per side yields the skip bound and the replay
		// terms, captured before any in-window event can mutate the state
		// they are derived from. The event queue is not consulted up front —
		// in-span events are handled by DrainQuiet, at their exact cycles. A
		// memory-internal event (an MSHR chain hop, a controller retry
		// timer) changes neither the CPU nor the L1s, so the span sails
		// straight through it. An event that does deliver CPU-visible state
		// closes the current sub-span — but the span only ends there if the
		// CPU actually has work at that cycle: a fill that matures a mid-ROB
		// entry with no ready dependents leaves the machine just as idle, so
		// the span re-opens from the post-event state, which is exactly what
		// a ticked run's subsequent idle cycles would see.
		cpuNext, fx, quiet := s.cpu.ProbeQuiet(now)
		if !quiet || cpuNext <= now+1 {
			continue
		}
		if cpuNext == ^uint64(0) {
			// Only a memory-side event can unblock the CPU. The controller's
			// mirror probe guarantees a non-quiet controller has its next
			// interaction covered by a pending event, so an empty queue
			// facing a non-quiet controller is a lost wakeup — a bug, but
			// one that must deadlock identically in both modes, so step
			// instead of skipping over it.
			if _, qok := s.q.NextAt(); !qok {
				if _, mquiet := s.ctrl.ProbeQuiet(now); !mquiet {
					continue
				}
			}
		}
		target := clamp(now, cpuNext)
		if target <= now+1 {
			continue
		}
		from := now
		var total uint64
		s.cpu.TakeWake() // events up to now already informed this Tick
		obsFrom, obsFired = now, s.q.Fired()
		land := target
		for {
			ea, woke := s.q.DrainQuiet(land, drainStop)
			if !woke {
				break
			}
			total += ea - 1 - from
			s.cpu.ApplyQuiet(fx, ea-1-from)
			from = ea - 1
			next, nfx, q := s.cpu.ProbeQuiet(from)
			if !q || next <= ea {
				land = ea // Tick(ea) has real work: land on it
				break
			}
			fx = nfx
			if s.obs != nil {
				obsFired = s.q.Fired()
				s.obs.OnEventCycle(ea, obsFired)
				obsFrom = ea
			}
			land = clamp(from, next)
			if land <= ea {
				land = ea + 1 // defensive: next > ea keeps this exact
			}
		}
		total += land - 1 - from
		s.cpu.ApplyQuiet(fx, land-1-from)
		if s.obs != nil {
			s.obs.OnCycleSkip(obsFrom, land-1, obsFired)
		}
		// Settle the controller's span-aggregated accounting at the landing:
		// the time-weighted concurrency histograms advance through the span
		// in one exact step instead of lagging until the next state change.
		s.ctrl.ApplyQuiet(land - 1)
		if total > 0 {
			s.recordSkip(total)
		}
		now = land - 1
	}
	if !sn.taken {
		// Timed out during warmup: report whole-run (cold) measurements
		// rather than an empty window.
		sn = snapshot{
			taken:     true,
			caches:    make([]cache.Stats, 4),
			committed: make([]uint64, len(s.cfg.Apps)),
		}
	}
	closeOut(now)
	return s.collect(now, sn)
}

func (s *Simulator) collect(now uint64, sn snapshot) (Result, error) {
	r := Result{
		Cycles:   now - sn.atCycle,
		TimedOut: !s.cpu.AllFinished(),
		Apps:     append([]string(nil), s.cfg.Apps...),
	}
	var totalCommitted uint64
	for i := range s.cfg.Apps {
		committed := s.cpu.Committed(i) - sn.committed[i]
		totalCommitted += committed
		fin, warm := s.cpu.FinishedAt(i), s.cpu.WarmedAt(i)
		var ipc float64
		switch {
		case fin > 0 && fin > warm:
			ipc = float64(s.cfg.TargetInstr) / float64(fin-warm)
		case r.Cycles > 0:
			ipc = float64(committed) / float64(r.Cycles)
		}
		if ipc <= 0 {
			return r, fmt.Errorf("core: thread %d (%s) made no progress in %d cycles", i, s.cfg.Apps[i], now)
		}
		r.Committed = append(r.Committed, committed)
		r.IPC = append(r.IPC, ipc)
		r.Squashes = append(r.Squashes, s.cpu.Squashes(i))
	}

	st := &s.ctrl.Stats
	r.MemReads, r.MemWrites = st.Reads-sn.mem.Reads, st.Writes-sn.mem.Writes
	if totalCommitted > 0 {
		r.MemReadsPer100Inst = 100 * float64(r.MemReads) / float64(totalCommitted)
	}
	if r.MemReads > 0 {
		r.AvgReadLatency = float64(st.ReadLatencySum-sn.mem.ReadLatencySum) / float64(r.MemReads)
	}
	for i := range s.cfg.Apps {
		if i >= len(st.ThreadReads) {
			break
		}
		n := st.ThreadReads[i] - sn.mem.ThreadReads[i]
		var lat float64
		if n > 0 {
			lat = float64(st.ThreadReadLatencySum[i]-sn.mem.ThreadReadLatencySum[i]) / float64(n)
		}
		r.ThreadAvgReadLatency = append(r.ThreadAvgReadLatency, lat)
	}
	hits, closed, conf := s.ctrl.RowBufferStats()
	r.RowHits, r.RowClosed, r.RowConflicts = hits-sn.rowHits, closed-sn.rowClosed, conf-sn.rowConf
	if total := r.RowHits + r.RowClosed + r.RowConflicts; total > 0 {
		r.RowBufferMissRate = float64(r.RowClosed+r.RowConflicts) / float64(total)
	}
	r.OutstandingHist = make([]uint64, len(st.OutstandingHist))
	r.ThreadSpreadHist = make([]uint64, len(st.ThreadSpreadHist))
	for i := range st.OutstandingHist {
		r.OutstandingHist[i] = st.OutstandingHist[i] - sn.mem.OutstandingHist[i]
		r.ThreadSpreadHist[i] = st.ThreadSpreadHist[i] - sn.mem.ThreadSpreadHist[i]
	}

	levels := []*cache.Level{s.l1i, s.l1d, s.l2, s.l3}
	for li, l := range levels {
		base := sn.caches[li]
		acc := l.Stats.Accesses - base.Accesses
		miss := l.Stats.Misses - base.Misses
		var mr float64
		if acc > 0 {
			mr = float64(miss) / float64(acc)
		}
		r.Caches = append(r.Caches, CacheSnapshot{
			Name:       l.Name(),
			Accesses:   acc,
			Misses:     miss,
			Writebacks: l.Stats.Writebacks - base.Writebacks,
			MissRate:   mr,
		})
	}

	if inj := s.ctrl.Injector(); inj != nil {
		ecc := s.ctrl.ECCStats()
		r.Faults = &FaultReport{
			Injected: inj.Stats.Total(), BitFlips: inj.Stats.BitFlips,
			MultiBit: inj.Stats.MultiBit, Drops: inj.Stats.Drops,
			Detected: ecc.Detected, Corrected: ecc.Corrected, Uncorrected: ecc.Uncorrected,
			Retries: st.Retries, RetryGiveUps: st.RetryGiveUps, FailedOver: st.FailedOver,
		}
		if ch, at := s.ctrl.Failover(); at > 0 && s.fsn != nil {
			f := s.fsn
			rep := &FailoverReport{FailedChannel: ch, AtCycle: at}
			if f.atCycle > 0 {
				rep.PreIPC = float64(f.committed) / float64(f.atCycle)
			}
			if now > f.atCycle {
				rep.PostIPC = float64(s.cpu.TotalCommitted-f.committed) / float64(now-f.atCycle)
			}
			if f.reads > 0 {
				rep.PreAvgReadLat = float64(f.latSum) / float64(f.reads)
			}
			if dr := st.Reads - f.reads; dr > 0 {
				rep.PostAvgReadLat = float64(st.ReadLatencySum-f.latSum) / float64(dr)
			}
			r.Failover = rep
		}
	}
	return r, nil
}

// Run builds and runs a machine in one call.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext builds and runs a machine under ctx in one call.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	s, err := NewSimulator(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}

// RunAlone runs a single application on the machine described by cfg
// (ignoring cfg.Apps) and returns its IPC — the denominator of weighted
// speedup.
func RunAlone(cfg Config, app string) (float64, error) {
	return RunAloneContext(context.Background(), cfg, app)
}

// RunAloneContext is RunAlone under a cancellation context.
func RunAloneContext(ctx context.Context, cfg Config, app string) (float64, error) {
	cfg.Apps = []string{app}
	res, err := RunContext(ctx, cfg)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// WeightedSpeedup runs cfg's mix and divides by single-thread baselines on
// the identical machine, caching baselines in baselineCache (keyed by app
// name) when non-nil so figure sweeps don't rerun them.
func WeightedSpeedup(cfg Config, baselineCache map[string]float64) (float64, Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return 0, Result{}, err
	}
	alone := make([]float64, len(cfg.Apps))
	for i, app := range cfg.Apps {
		if baselineCache != nil {
			if v, ok := baselineCache[app]; ok {
				alone[i] = v
				continue
			}
		}
		v, err := RunAlone(cfg, app)
		if err != nil {
			return 0, Result{}, err
		}
		if baselineCache != nil {
			baselineCache[app] = v
		}
		alone[i] = v
	}
	ws, err := stats.WeightedSpeedup(res.IPC, alone)
	if err != nil {
		return 0, Result{}, err
	}
	return ws, res, nil
}

// CPIBreakdownConfigs returns the four machine configurations behind the
// paper's CPI attribution for a single application (Section 4.2), in
// attribution order: realistic, perfect L3, perfect L2, perfect L1. The four
// runs are independent, so callers may execute them concurrently and feed the
// CPIs to stats.NewBreakdown in the same order.
func CPIBreakdownConfigs(cfg Config, app string) [4]Config {
	cfg.Apps = []string{app}
	cfgs := [4]Config{cfg, cfg, cfg, cfg}
	cfgs[1].PerfectL3 = true
	cfgs[2].PerfectL2 = true
	cfgs[3].PerfectL1 = true
	return cfgs
}

// CPIBreakdown runs the four-configuration attribution sequentially.
func CPIBreakdown(cfg Config, app string) (stats.Breakdown, error) {
	var cpi [4]float64
	for i, c := range CPIBreakdownConfigs(cfg, app) {
		res, err := Run(c)
		if err != nil {
			return stats.Breakdown{}, err
		}
		cpi[i] = 1 / res.IPC[0]
	}
	return stats.NewBreakdown(cpi[0], cpi[1], cpi[2], cpi[3]), nil
}
