package core

import (
	"context"
	"fmt"

	"smtdram/internal/addrmap"
	"smtdram/internal/cache"
	"smtdram/internal/cpu"
	"smtdram/internal/event"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
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
	// the instruction target; IPCs then reflect partial progress (0 for a
	// thread that committed nothing in the window).
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
}

// FaultReport is the end-of-run fault accounting. The contract is exact:
// Drops == Retries + RetryGiveUps.
type FaultReport struct {
	// Drops is the number of reads the injector dropped.
	Drops uint64
	// Controller response: backoff re-queues and reads delivered after
	// exhausting retries.
	Retries, RetryGiveUps uint64
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
	// gens are the threads' generators, nil when cfg.Sources drives the
	// threads, and the snapshot walk's view of them. sup feeds the CPU from
	// them and settles them when the clock stops, so outside clock.until each
	// stands exactly at what its thread has consumed.
	gens []*workload.Gen
	sup  *workload.Supply
	obs  *obs.Observer
	skip obs.SkipStats

	// at is the cycle the machine stands at: 0 as built, the warmup boundary
	// once decoded from a checkpoint (snapshot.go), which is where a run's
	// clock starts.
	at uint64
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

	srcs := make([]cpu.Source, len(cfg.Apps))
	for i, name := range cfg.Apps {
		if cfg.Sources != nil {
			srcs[i] = cfg.Sources[i]
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
		s.gens = append(s.gens, g)
	}
	s.sup = workload.NewSupply(s.gens)
	for i, f := range s.sup.Feeds() {
		srcs[i] = f
	}
	s.cpu, err = cpu.New(&s.q, cfg.CPU, srcs, s.l1i, s.l1d)
	if err != nil {
		return nil, err
	}
	s.cpu.SetTarget(cfg.WarmupInstr, cfg.TargetInstr)
	s.cpu.SetMemPressure(s.ctrl.Outstanding)
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
	atCycle   uint64
}

func (s *Simulator) takeSnapshot(now uint64) snapshot {
	sn := snapshot{mem: s.ctrl.Stats, atCycle: now}
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
// within at most one watchdog window plus the current quiet-span jump. A
// cancelled run returns ctx.Err() after closing its stats and observer
// exactly like a watchdog abort, leaving the simulator in a consistent
// (finished) state.
//
// The run is warm, transition, measure, close out, on one clock (clock.go).
// A machine decoded from a warmup checkpoint stands at the boundary already
// warmed, so its warm phase is empty and it continues with the transition an
// uninterrupted run performs on that same cycle.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	k := s.newClock()
	// phase reports a phase boundary at the current cycle to the observer's
	// Phase hook: entering warmup or measure, and "" when the run ends.
	phase := func(name string) {
		if s.obs != nil && s.obs.Phase != nil {
			s.obs.Phase(name, k.now)
		}
	}
	// A run whose budget ends inside warmup never opens a measured window; it
	// reports whole-run (cold) measurements rather than an empty one.
	sn := snapshot{caches: make([]cache.Stats, 4), committed: make([]uint64, len(s.cfg.Apps))}

	if !s.cpu.AllWarmed() {
		phase("warmup")
	}
	err := k.until(ctx, s.cpu.AllWarmed)
	if err == nil && s.cpu.AllWarmed() {
		// The warmup transition: every cumulative counter is frozen at this
		// cycle, so results cover only what follows.
		s.ctrl.FinishStats(k.now)
		sn = s.takeSnapshot(k.now)
		phase("measure")
		err = k.until(ctx, s.cpu.AllFinished)
	}
	// However the run ends — finished, budget spent, cancelled, or aborted by
	// the watchdog — stats and observer close the same way.
	phase("")
	s.ctrl.FinishStats(k.now)
	s.skip.Wall = k.now
	if s.obs != nil {
		s.obs.Skip = s.skip
		s.obs.Finish(k.now)
	}
	if err != nil {
		return Result{}, err
	}
	return s.collect(k.now, sn), nil
}

// collect measures the run that ended at cycle now from the warmup snapshot.
func (s *Simulator) collect(now uint64, sn snapshot) Result {
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
		r.Faults = &FaultReport{
			Drops:   inj.Drops,
			Retries: st.Retries, RetryGiveUps: st.RetryGiveUps,
		}
	}
	return r
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
// the identical machine, caching baselines in baselineCache when non-nil so
// figure sweeps don't rerun them. A baseline is keyed by the Fingerprint of
// the one-thread configuration that measured it, so one cache may serve
// several machines, seeds and lengths.
func WeightedSpeedup(cfg Config, baselineCache map[string]float64) (float64, Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return 0, Result{}, err
	}
	alone := make([]float64, len(cfg.Apps))
	for i, app := range cfg.Apps {
		one := cfg
		one.Apps = []string{app}
		key := one.Fingerprint()
		if v, ok := baselineCache[key]; ok {
			alone[i] = v
			continue
		}
		v, err := RunAlone(cfg, app)
		if err != nil {
			return 0, Result{}, err
		}
		if baselineCache != nil {
			baselineCache[key] = v
		}
		alone[i] = v
	}
	ws, err := SpeedupSum(res.IPC, alone)
	if err != nil {
		return 0, Result{}, err
	}
	return ws, res, nil
}

// CPIBreakdownConfigs returns the four machine configurations behind the
// paper's CPI attribution for a single application (Section 4.2), in
// attribution order: realistic, perfect L3, perfect L2, perfect L1. The four
// runs are independent, so callers may execute them concurrently and feed the
// CPIs to NewBreakdown in the same order.
func CPIBreakdownConfigs(cfg Config, app string) [4]Config {
	cfg.Apps = []string{app}
	cfgs := [4]Config{cfg, cfg, cfg, cfg}
	cfgs[1].PerfectL3 = true
	cfgs[2].PerfectL2 = true
	cfgs[3].PerfectL1 = true
	return cfgs
}

// CPIBreakdown runs the four-configuration attribution sequentially.
func CPIBreakdown(cfg Config, app string) (Breakdown, error) {
	var cpi [4]float64
	for i, c := range CPIBreakdownConfigs(cfg, app) {
		res, err := Run(c)
		if err != nil {
			return Breakdown{}, err
		}
		cpi[i] = 1 / res.IPC[0]
	}
	return NewBreakdown(cpi[0], cpi[1], cpi[2], cpi[3]), nil
}
