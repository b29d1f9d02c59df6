package main

import (
	"fmt"
	"time"

	"smtdram/internal/addrmap"
	"smtdram/internal/cache"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/memctrl"
	"smtdram/internal/workload"
)

// The twin machine is the traced run's instrument. It is assembled from the
// same public constructors core.NewSimulator uses and ticked every cycle, so
// it simulates exactly what core.Run simulates (the run checks cycles,
// per-thread commits and DRAM reads against the Result) — but every boundary
// between layers that is a direct call or an interface passes through a
// timing shim owned by this package. Nothing inside internal/* is touched.

// layer names one shimmed boundary.
type layer int

const (
	lTick     layer = iota // cpu.Tick, once per cycle
	lRunUntil              // event.Queue.RunUntil, once per cycle
	lL1L2                  // cache.Backend calls from an L1 into L2
	lL2L3                  // ... from L2 into L3
	lL3Mem                 // ... from L3 into the MemBackend
	lEnqueue               // mem.Controller.Enqueue
	nLayers
)

var layerNames = [nLayers]string{
	"cpu.tick", "event.rununtil", "cache.l1_l2", "cache.l2_l3", "cache.l3_mem", "memctrl.enqueue",
}

// spanAcc aggregates spans per layer instead of keeping one record per call:
// a traced 8-thread run crosses these boundaries tens of millions of times.
// A span's self time is its duration minus the time its child spans covered,
// minus what reading the clock cost inside it; that cost is kept as a layer
// of its own (shim), so the self times still add up to the wall.
type spanAcc struct {
	base   time.Time
	readNs time.Duration // calibrated cost of one clock read
	stack  []frame
	calls  [nLayers]uint64
	total  [nLayers]time.Duration
	self   [nLayers]time.Duration
	shim   time.Duration
}

type frame struct {
	l        layer
	start    time.Duration
	child    time.Duration
	children int
}

func newSpanAcc() *spanAcc {
	a := &spanAcc{base: time.Now(), stack: make([]frame, 0, 16)}
	const reads = 100_000
	t := a.clock()
	for i := 0; i < reads; i++ {
		a.clock()
	}
	a.readNs = (a.clock() - t) / reads
	return a
}

// clock reads the monotonic clock once (time.Since does not read wall time).
func (a *spanAcc) clock() time.Duration { return time.Since(a.base) }

func (a *spanAcc) enterAt(l layer, at time.Duration) {
	a.stack = append(a.stack, frame{l: l, start: at})
}

func (a *spanAcc) exitAt(at time.Duration) {
	f := a.stack[len(a.stack)-1]
	a.stack = a.stack[:len(a.stack)-1]
	d := at - f.start
	// A span's own interval holds about one clock read of its own (half of
	// the one that opened it, half of the one that closed it) and the other
	// halves of each child's two.
	self := d - f.child
	cost := a.readNs * time.Duration(1+f.children)
	if cost > self {
		cost = self
	}
	a.calls[f.l]++
	a.total[f.l] += d
	a.self[f.l] += self - cost
	a.shim += cost
	if n := len(a.stack); n > 0 {
		a.stack[n-1].child += d
		a.stack[n-1].children++
	}
}

// selfSum is the time the top-level spans covered: every nanosecond of it
// is some layer's self time or the shims' clock reads.
func (a *spanAcc) selfSum() time.Duration {
	s := a.shim
	for _, d := range a.self {
		s += d
	}
	return s
}

// backendShim times one cache.Backend boundary.
type backendShim struct {
	inner cache.Backend
	acc   *spanAcc
	l     layer
}

func (b *backendShim) ReadLine(now, addr uint64, meta cache.Meta, done event.Filler) bool {
	b.acc.enterAt(b.l, b.acc.clock())
	ok := b.inner.ReadLine(now, addr, meta, done)
	b.acc.exitAt(b.acc.clock())
	return ok
}

func (b *backendShim) WriteLine(now, addr uint64, meta cache.Meta) bool {
	b.acc.enterAt(b.l, b.acc.clock())
	ok := b.inner.WriteLine(now, addr, meta)
	b.acc.exitAt(b.acc.clock())
	return ok
}

// ctrlShim times mem.Controller.Enqueue and counts refusals.
type ctrlShim struct {
	inner   mem.Controller
	acc     *spanAcc
	refused uint64
}

func (c *ctrlShim) Enqueue(now uint64, r *mem.Request) bool {
	c.acc.enterAt(lEnqueue, c.acc.clock())
	ok := c.inner.Enqueue(now, r)
	c.acc.exitAt(c.acc.clock())
	if !ok {
		c.refused++
	}
	return ok
}

// twin is one assembled machine.
type twin struct {
	cfg  core.Config
	q    event.Queue
	ctrl *memctrl.Controller
	l1i  *cache.Level
	l1d  *cache.Level
	l2   *cache.Level
	l3   *cache.Level
	cpu  *cpu.CPU
	gens []*workload.Gen

	acc   *spanAcc // nil: wired directly, no shims
	cshim *ctrlShim
	trace []memctrl.TraceEvent
}

// memParts resolves the DRAM system a config describes — mapper, device
// parameters, scheduling — the way core.NewSimulator does; the twin and the
// replay drivers build from it.
func memParts(cfg core.Config) (memctrl.Config, error) {
	geo, err := cfg.Mem.Geometry()
	if err != nil {
		return memctrl.Config{}, err
	}
	params, err := cfg.Mem.Params()
	if err != nil {
		return memctrl.Config{}, err
	}
	mapper, err := addrmap.NewMapper(geo, cfg.Mem.Scheme)
	if err != nil {
		return memctrl.Config{}, err
	}
	return memctrl.Config{
		Mapper:           mapper,
		Params:           params,
		Policy:           cfg.Mem.Policy,
		QueueDepth:       cfg.Mem.QueueDepth,
		MaxInFlight:      cfg.Mem.MaxInFlight,
		ThreadAwareFirst: cfg.Mem.ThreadAwareFirst,
		Threads:          len(cfg.Apps),
	}, nil
}

// newTwin wires the machine cfg describes. With acc set, every layer
// boundary goes through a shim and the controller records its TraceEvents;
// with acc nil the wiring is core.NewSimulator's own.
func newTwin(cfg core.Config, acc *spanAcc) (*twin, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sources != nil || cfg.Observe != nil || !cfg.Faults.Empty() || cfg.PerfectL1 || cfg.PerfectL2 || cfg.PerfectL3 {
		return nil, fmt.Errorf("bench: the twin machine models plain generator-driven configurations only")
	}
	t := &twin{cfg: cfg, acc: acc}
	mcfg, err := memParts(cfg)
	if err != nil {
		return nil, err
	}
	if acc != nil {
		mcfg.Trace = func(ev memctrl.TraceEvent) { t.trace = append(t.trace, ev) }
	}
	if t.ctrl, err = memctrl.New(&t.q, mcfg); err != nil {
		return nil, err
	}
	// wrap puts a shim in front of a lower level when tracing.
	wrap := func(b cache.Backend, l layer) cache.Backend {
		if acc == nil {
			return b
		}
		return &backendShim{inner: b, acc: acc, l: l}
	}
	var ctl mem.Controller = t.ctrl
	if acc != nil {
		t.cshim = &ctrlShim{inner: t.ctrl, acc: acc}
		ctl = t.cshim
	}
	mb := cache.NewMemBackend(&t.q, ctl)
	if t.l3, err = cache.New(&t.q, cfg.L3, wrap(mb, lL3Mem)); err != nil {
		return nil, err
	}
	if t.l2, err = cache.New(&t.q, cfg.L2, wrap(t.l3, lL2L3)); err != nil {
		return nil, err
	}
	l2 := wrap(t.l2, lL1L2)
	if t.l1d, err = cache.New(&t.q, cfg.L1D, l2); err != nil {
		return nil, err
	}
	if t.l1i, err = cache.New(&t.q, cfg.L1I, l2); err != nil {
		return nil, err
	}
	srcs := make([]cpu.Source, len(cfg.Apps))
	for i, name := range cfg.Apps {
		app, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := workload.NewGen(app, i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		srcs[i] = g
		t.gens = append(t.gens, g)
	}
	if t.cpu, err = cpu.New(&t.q, cfg.CPU, srcs, t.l1i, t.l1d); err != nil {
		return nil, err
	}
	t.cpu.SetTarget(cfg.WarmupInstr, cfg.TargetInstr)
	t.cpu.SetMemPressure(t.ctrl.Outstanding)
	return t, nil
}

// twinResult is what one twin run measured: the simulated counts the
// equivalence check compares with core.Run's Result, and the host-side
// accounting.
type twinResult struct {
	Cycles    uint64   // measured window, like Result.Cycles
	Committed []uint64 // per thread, measured window
	MemReads  uint64   // measured window

	TotalCycles uint64 // warm-up included
	Fired       uint64
	MaxPending  int
	Generated   []uint64 // instructions each generator produced
	Wall        time.Duration
}

// run ticks the twin to completion: the loop of core.Simulator.RunContext
// with the two-speed clock, the watchdog and the observers taken out.
func (t *twin) run() (twinResult, error) {
	limit := (t.cfg.WarmupInstr + t.cfg.TargetInstr) * 400
	if limit < 2_000_000 {
		limit = 2_000_000
	}
	n := len(t.cfg.Apps)
	var (
		warmAt    uint64
		warmed    = t.cfg.WarmupInstr == 0
		baseReads uint64
		baseCom   = make([]uint64, n)
		now       uint64
		acc       = t.acc
		at        time.Duration
	)
	start := time.Now()
	if acc != nil {
		at = acc.clock()
	}
	for now = 1; now <= limit; now++ {
		if acc != nil {
			// Two clock reads per cycle: the instant RunUntil returns is the
			// instant Tick starts, and the loop's own checks ride in Tick's
			// span, so the spans tile the run with no gaps.
			acc.enterAt(lRunUntil, at)
			t.q.RunUntil(now)
			at = acc.clock()
			acc.exitAt(at)
			acc.enterAt(lTick, at)
			t.cpu.Tick(now)
		} else {
			t.q.RunUntil(now)
			t.cpu.Tick(now)
		}
		if !warmed && t.cpu.AllWarmed() {
			warmed = true
			t.ctrl.FinishStats(now)
			warmAt, baseReads = now, t.ctrl.Stats.Reads
			for i := range baseCom {
				baseCom[i] = t.cpu.Committed(i)
			}
		}
		done := warmed && t.cpu.AllFinished()
		if acc != nil {
			at = acc.clock()
			acc.exitAt(at)
		}
		if done {
			break
		}
	}
	wall := time.Since(start)
	if now > limit {
		return twinResult{}, fmt.Errorf("bench: twin machine did not finish in %d cycles", limit)
	}
	t.ctrl.FinishStats(now)
	r := twinResult{
		Cycles:      now - warmAt,
		MemReads:    t.ctrl.Stats.Reads - baseReads,
		TotalCycles: now,
		Fired:       t.q.Fired(),
		MaxPending:  t.q.MaxLen(),
		Wall:        wall,
	}
	for i := 0; i < n; i++ {
		r.Committed = append(r.Committed, t.cpu.Committed(i)-baseCom[i])
		r.Generated = append(r.Generated, t.gens[i].Generated())
	}
	return r, nil
}

// matches reports whether the twin simulated what core.Run simulated.
func (r twinResult) matches(res core.Result) error {
	if r.Cycles != res.Cycles {
		return fmt.Errorf("twin ran %d cycles, core.Run %d", r.Cycles, res.Cycles)
	}
	if r.MemReads != res.MemReads {
		return fmt.Errorf("twin issued %d DRAM reads, core.Run %d", r.MemReads, res.MemReads)
	}
	for i, c := range r.Committed {
		if i >= len(res.Committed) || c != res.Committed[i] {
			return fmt.Errorf("twin thread %d committed %d, core.Run %v", i, c, res.Committed)
		}
	}
	return nil
}
