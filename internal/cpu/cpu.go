// Package cpu models the SMT out-of-order processor core: per-thread PCs and
// reorder buffers, shared fetch bandwidth, issue queues, functional units and
// caches, the four instruction-fetch policies the paper compares, branch
// misprediction squash with replay, and MSHR-limited non-blocking loads.
//
// The core is cycle-stepped; the memory subsystem below it is event-driven.
// It is not an ISA interpreter: instructions come from the synthetic
// per-application generators in internal/workload, which preserve exactly
// the properties the paper's memory-system study depends on (clustered
// misses, bounded MLP, resource occupancy under stall). See DESIGN.md §2.
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"smtdram/internal/cache"
	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/obs"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

// Config sizes the core, following Table 1 of the paper.
type Config struct {
	FetchWidth        int         // instructions fetched per cycle (8)
	FetchMaxThreads   int         // threads sharing one cycle's fetch (2)
	FrontendDelay     uint64      // fetch→dispatch latency, from the 11-stage pipe (8)
	FrontendCap       int         // per-thread fetch buffer entries (64: covers FetchWidth × FrontendDelay)
	DispatchWidth     int         // instructions dispatched per cycle (8)
	IntIssueWidth     int         // 8
	FPIssueWidth      int         // 4
	IntIQ             int         // shared integer issue-queue entries (64)
	FPIQ              int         // shared FP issue-queue entries (32)
	ROBPerThread      int         // reorder-buffer entries per thread (256)
	LQ, SQ            int         // shared load/store queue entries (64/64)
	IntALU, IntMult   int         // 6, 6
	FPALU, FPMult     int         // 2, 2
	CommitWidth       int         // 8
	MispredictPenalty uint64      // 9 cycles
	L1DLatency        uint64      // used to classify in-flight loads as misses (1)
	L2Latency         uint64      // used to classify in-flight loads as L2 misses (10)
	Policy            FetchPolicy // instruction fetch policy
	// MissIQAllowance caps the issue-queue entries a thread may hold while
	// it is experiencing a miss, under the miss-aware fetch policies
	// (FetchStall, DG, DWarn). Real machines get this bound for free from
	// their shallow decode/rename stages: once fetch is gated, at most a
	// couple of fetch blocks can still dispatch. Our frontend buffer is
	// deep (it models the whole 8-wide × 8-stage pipe), so the gate is
	// applied at dispatch instead. ICOUNT has no such gate — which is
	// exactly why it clogs on MEM-heavy mixes in the paper.
	MissIQAllowance int
}

// DefaultConfig returns the paper's Table 1 core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		FetchMaxThreads:   2,
		FrontendDelay:     8,
		FrontendCap:       64,
		DispatchWidth:     8,
		IntIssueWidth:     8,
		FPIssueWidth:      4,
		IntIQ:             64,
		FPIQ:              32,
		ROBPerThread:      256,
		LQ:                64,
		SQ:                64,
		IntALU:            6,
		IntMult:           6,
		FPALU:             2,
		FPMult:            2,
		CommitWidth:       8,
		MispredictPenalty: 9,
		L1DLatency:        1,
		L2Latency:         10,
		Policy:            DWarn,
		MissIQAllowance:   8,
	}
}

// Validate rejects configurations the simulator cannot run.
func (c Config) Validate() error {
	for _, v := range []int{
		c.FetchWidth, c.FetchMaxThreads, c.FrontendCap, c.DispatchWidth,
		c.IntIssueWidth, c.FPIssueWidth, c.IntIQ, c.FPIQ, c.ROBPerThread,
		c.LQ, c.SQ, c.IntALU, c.IntMult, c.FPALU, c.FPMult, c.CommitWidth,
	} {
		if v <= 0 {
			return fmt.Errorf("cpu: non-positive config field in %+v", c)
		}
	}
	return nil
}

// uop states.
const (
	stWaiting uint8 = iota // in ROB and issue queue
	stIssued               // executing (or load in flight)
	stDone                 // result available
)

const noDep = ^uint64(0)
const pendingDone = ^uint64(0)
const poisoned = ^uint64(0) // epoch of a squashed uop: stale callbacks miss it

// link names one consumer-list node: 0 ends a list, otherwise it is
// 1 + (the consumer's ROB slot<<1 | which of its two deps the node serves).
type link uint32

// uop is one in-flight instruction.
type uop struct {
	in       workload.Instr // retained for replay after squash
	seq      uint64
	epoch    uint64
	tid      int32 // owning hardware thread
	state    uint8
	unknown  uint8  // producers whose completion time is not yet known (wakeup state, below)
	doneAt   uint64 // pendingDone until the completion time is known: while waiting, or a load in flight
	issuedAt uint64

	dep1, dep2 uint64 // absolute producer sequence numbers (noDep = none)

	// Wakeup state (DESIGN §11). A waiting uop is linked into the consumer
	// list of each distinct in-ROB producer whose doneAt is still pendingDone,
	// and unknown counts those links. When a producer's completion time
	// becomes known (an ALU issue, a load fill) it walks its list, folds its
	// doneAt into each consumer's readyAt, and a consumer whose count reaches
	// zero enters the CPU's ready set — so issue never looks at a uop that
	// cannot issue. Lists are pushed newest-first: a squash, which unlinks
	// youngest-first, always finds the node to drop at its producer's head.
	readyAt uint64  // max doneAt over the producers known so far
	stamp   uint64  // global dispatch order: the ready set's sort key
	cons    link    // head of this uop's consumer list
	next    [2]link // this uop's node in dep1's / dep2's producer list
}

type feEntry struct {
	in      workload.Instr
	readyAt uint64 // cycle the instruction reaches dispatch
}

// thread is the per-hardware-thread state.
type thread struct {
	id  int
	gen Source

	peeked    workload.Instr // valid only while hasPeeked
	hasPeeked bool
	// replay, frontend and inFlight are head-indexed deques: live entries are
	// buf[head:], a pop advances the head, and pushes compact in place —
	// re-slicing from the front would give the buffer's capacity away and
	// make every refill reallocate.
	replay []workload.Instr
	rpHead int
	// replayScratch is the spare buffer resolveBranch builds the next replay
	// list into; it swaps with replay so squashes stop allocating once the
	// two buffers have grown.
	replayScratch []workload.Instr
	frontend      []feEntry
	feHead        int
	// rob is a power-of-two ring indexed by seq&robMask; occupancy is still
	// bounded by Config.ROBPerThread.
	rob       []uop
	robMask   uint64
	headSeq   uint64
	nextSeq   uint64
	epoch     uint64
	iqInt     int
	iqFP      int
	lq, sq    int // this thread's LQ/SQ occupancy
	committed uint64

	inFlight []*uop // loads in flight, issue order (for miss classification)
	ifHead   int

	curILine          uint64
	imissPending      bool
	fetchBlockedUntil uint64

	// warmedAt/finishedAt are the cycles the thread crossed the warmup and
	// warmup+target instruction counts (0 while running); the run harness
	// computes IPC as target/(finishedAt-warmedAt).
	warmedAt   uint64
	finishedAt uint64

	// stats
	squashes uint64
	loads    uint64
	stores   uint64
	imisses  uint64
	gated    uint64 // dispatch cycles blocked by the fetch policy's gate
}

func (t *thread) robCount() int { return int(t.nextSeq - t.headSeq) }

func (t *thread) slot(seq uint64) *uop { return &t.rob[seq&t.robMask] }

// producer returns the in-ROB uop that u's k-th dep names, or nil when there
// is none to wait for: no dep, a committed one, or dep2 repeating dep1 (one
// producer is linked and counted once).
func (t *thread) producer(u *uop, k int) *uop {
	dep := u.dep1
	if k == 1 {
		if dep = u.dep2; dep == u.dep1 {
			return nil
		}
	}
	if dep == noDep || dep < t.headSeq {
		return nil
	}
	return t.slot(dep)
}

// outstanding is the in-flight load list's depth: the loads still in flight
// plus any that matured since the last Tick trimmed the list.
func (t *thread) outstanding() int { return len(t.inFlight) - t.ifHead }

// live reports whether in-flight-list entry u is still a load in flight at
// now: not done, not matured, and not a slot since recycled by a non-load.
func (u *uop) live(now uint64) bool {
	return u.state != stDone && !(u.state == stIssued && u.doneAt <= now) && u.in.Kind == workload.Load
}

// oldestLive returns the oldest load still in flight at now, or nil. It is
// read-only: ProbeQuiet asks it about cycles whose Ticks may never run.
func (t *thread) oldestLive(now uint64) *uop {
	for _, u := range t.inFlight[t.ifHead:] {
		if u.live(now) {
			return u
		}
	}
	return nil
}

// popMatured trims the in-flight list's matured prefix. Tick calls it for
// every thread under every policy, and only Tick does: the list is in the
// checkpoint frame, so its depth after a landed cycle must not depend on what
// was asked of it, or on how many Ticks the clock skipped on the way there.
func (t *thread) popMatured(now uint64) {
	for t.ifHead < len(t.inFlight) && !t.inFlight[t.ifHead].live(now) {
		t.ifHead++
	}
	if t.ifHead == len(t.inFlight) {
		t.inFlight, t.ifHead = t.inFlight[:0], 0
	}
}

// next peeks the next instruction to fetch without consuming it. The peeked
// instruction lives in the thread struct by value, so peeking never escapes
// to the heap.
func (t *thread) next() *workload.Instr {
	if !t.hasPeeked {
		if t.rpHead < len(t.replay) {
			t.peeked = t.replay[t.rpHead]
			if t.rpHead++; t.rpHead == len(t.replay) {
				t.replay, t.rpHead = t.replay[:0], 0
			}
		} else {
			t.peeked = t.gen.Next()
		}
		t.hasPeeked = true
	}
	return &t.peeked
}

func (t *thread) consume() workload.Instr {
	t.hasPeeked = false
	return t.peeked
}

// feLen is the live frontend-buffer depth.
func (t *thread) feLen() int { return len(t.frontend) - t.feHead }

// pushDeque appends v to the head-indexed deque buf[head:], reclaiming
// popped-off head space rather than growing the buffer.
func pushDeque[T any](buf []T, head int, v T) ([]T, int) {
	if head > 0 && len(buf) == cap(buf) {
		buf, head = buf[:copy(buf, buf[head:])], 0
	}
	return append(buf, v), head
}

type pendingStore struct {
	addr uint64
	meta cache.Meta
}

// loadFill is the recyclable completion carrier of an in-flight load
// (event.Filler), handed to the L1D as the fill callback. The cache either
// retains an accepted fill carrier until it fires exactly once, or — when
// ReadLine returns false — drops it immediately, so the carrier can be
// released at exactly those two points.
type loadFill struct {
	c          *CPU
	t          *thread
	seq, epoch uint64
}

// OnFill implements event.Filler: the load's line arrived.
func (f *loadFill) OnFill(at uint64) {
	c, t, seq, epoch := f.c, f.t, f.seq, f.epoch
	f.t = nil
	c.wake = true
	c.freeLoadFills = append(c.freeLoadFills, f)
	v := t.slot(seq)
	if v.seq == seq && v.epoch == epoch && v.state == stIssued {
		v.doneAt = at
		c.wakeConsumers(t, v)
	}
}

// SnapRef implements event.RefMaker.
func (f *loadFill) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPULoadFill, Args: []uint64{uint64(f.t.id), f.seq, f.epoch}}
}

func (c *CPU) getLoadFill() *loadFill {
	if n := len(c.freeLoadFills); n > 0 {
		f := c.freeLoadFills[n-1]
		c.freeLoadFills[n-1] = nil
		c.freeLoadFills = c.freeLoadFills[:n-1]
		return f
	}
	return &loadFill{c: c}
}

// ifill is the recyclable I-cache fill carrier (same lifecycle as loadFill:
// retained only by an accepted miss, fires exactly once).
type ifill struct {
	c     *CPU
	t     *thread
	line  uint64
	epoch uint64
}

// OnFill implements event.Filler: the instruction line arrived.
func (f *ifill) OnFill(uint64) {
	c, t, line, epoch := f.c, f.t, f.line, f.epoch
	f.t = nil
	c.wake = true
	c.freeIFills = append(c.freeIFills, f)
	if t.epoch == epoch {
		t.imissPending = false
		t.curILine = line
	}
}

// SnapRef implements event.RefMaker.
func (f *ifill) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPUIFill, Args: []uint64{uint64(f.t.id), f.line, f.epoch}}
}

func (c *CPU) getIFill() *ifill {
	if n := len(c.freeIFills); n > 0 {
		f := c.freeIFills[n-1]
		c.freeIFills[n-1] = nil
		c.freeIFills = c.freeIFills[:n-1]
		return f
	}
	return &ifill{c: c}
}

// brEvent is the recyclable branch-resolution event (event.Handler); a
// scheduled event fires exactly once, so it releases itself on fire.
type brEvent struct {
	c          *CPU
	t          *thread
	seq, epoch uint64
}

func (e *brEvent) OnEvent(at uint64) {
	c, t, seq, epoch := e.c, e.t, e.seq, e.epoch
	e.t = nil
	c.wake = true
	c.freeBrEvents = append(c.freeBrEvents, e)
	c.resolveBranch(at, t, seq, epoch)
}

// SnapRef implements event.RefMaker.
func (e *brEvent) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCPUBranch, Args: []uint64{uint64(e.t.id), e.seq, e.epoch}}
}

func (c *CPU) getBrEvent() *brEvent {
	if n := len(c.freeBrEvents); n > 0 {
		e := c.freeBrEvents[n-1]
		c.freeBrEvents[n-1] = nil
		c.freeBrEvents = c.freeBrEvents[:n-1]
		return e
	}
	return &brEvent{c: c}
}

// CPU is the simulated SMT processor.
type CPU struct {
	cfg      Config
	q        *event.Queue
	threads  []*thread
	l1i, l1d *cache.Level

	// ready is the ready set: the waiting uops whose producers all have a
	// known completion time (uop.unknown == 0), in dispatch order. It is the
	// only part of the issue queue issue() and ProbeQuiet look at; the rest
	// are parked on their producers' consumer lists.
	ready     []*uop
	nextStamp uint64 // dispatch stamp of the next uop to enter the issue queue

	rrFetch    int
	rrDispatch int
	rrCommit   int

	intIQUsed, fpIQUsed int
	lqUsed, sqUsed      int

	// pendingStores is a head-indexed deque (live entries psHead:), drained
	// in place so the committed-store buffer never reallocates in steady
	// state.
	pendingStores []pendingStore
	psHead        int

	scratchThreads []*thread
	scratchOrder   []*thread

	// Free lists for the per-event callback carriers; each carries a closure
	// bound once at creation, so load fills, I-miss fills, and branch
	// resolutions stop allocating once the pools are warm.
	freeLoadFills []*loadFill
	freeIFills    []*ifill
	freeBrEvents  []*brEvent

	warmup uint64 // per-thread instructions to retire before measurement
	target uint64 // per-thread committed-instruction goal past warmup (0 = none)

	// memPressure, when set, reports a thread's pending DRAM request count
	// (the Coop fetch policy's input; see SetMemPressure).
	memPressure func(thread int) int

	// wake is the two-speed clock's dirty flag: set whenever an event
	// delivers CPU-visible state (a load fill, an I-fill, a branch
	// resolution, any L1 install). The run loop's deep-skip span ends at
	// the first event cycle that sets it (see TakeWake).
	wake bool
	// acted records whether the current Tick made real progress (see Acted).
	acted bool

	// Stats
	Cycles         uint64
	TotalCommitted uint64
}

// Source produces a thread's dynamic instruction stream. *workload.Gen is
// the production implementation; tests substitute scripted streams.
type Source interface {
	Next() workload.Instr
}

// New assembles a CPU over the given per-thread instruction sources and L1
// caches.
func New(q *event.Queue, cfg Config, gens []Source, l1i, l1d *cache.Level) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("cpu: no threads")
	}
	if len(gens) > 64 {
		// QuietFx tracks gated dispatch in a 64-bit mask; Table 1's SMT
		// contexts number at most 8, so the bound costs nothing real.
		return nil, fmt.Errorf("cpu: %d threads exceeds the 64-context limit", len(gens))
	}
	c := &CPU{
		cfg: cfg, q: q, l1i: l1i, l1d: l1d,
		scratchThreads: make([]*thread, 0, len(gens)),
	}
	robLen := 1 << bits.Len(uint(cfg.ROBPerThread-1))
	for i, g := range gens {
		t := &thread{
			id:       i,
			gen:      g,
			rob:      make([]uop, robLen),
			robMask:  uint64(robLen - 1),
			curILine: ^uint64(0),
		}
		c.threads = append(c.threads, t)
	}
	// Wakeup hints for the two-speed clock: a fill landing in either L1 can
	// change what the next Tick does, so it must end a deep-skip span.
	poke := func() { c.wake = true }
	l1i.Wake = poke
	l1d.Wake = poke
	return c, nil
}

// Threads returns the hardware thread count.
func (c *CPU) Threads() int { return len(c.threads) }

// Committed returns instructions retired by thread i.
func (c *CPU) Committed(i int) uint64 { return c.threads[i].committed }

// FinishedAt returns the cycle thread i crossed the target set by
// SetTarget, or 0 if it has not.
func (c *CPU) FinishedAt(i int) uint64 { return c.threads[i].finishedAt }

// Squashes returns thread i's branch-mispredict squash count.
func (c *CPU) Squashes(i int) uint64 { return c.threads[i].squashes }

// LoadsStores returns thread i's issued memory-operation counts.
func (c *CPU) LoadsStores(i int) (loads, stores uint64) {
	return c.threads[i].loads, c.threads[i].stores
}

// IMisses returns thread i's instruction-cache miss count.
func (c *CPU) IMisses(i int) uint64 { return c.threads[i].imisses }

// RegisterMetrics exposes core occupancies and counters through the metrics
// registry. Safe on a nil registry.
func (c *CPU) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("cpu.committed", func(uint64) float64 { return float64(c.TotalCommitted) })
	reg.Sampled("cpu.iq_int_used", func(uint64) float64 { return float64(c.intIQUsed) })
	reg.Sampled("cpu.iq_fp_used", func(uint64) float64 { return float64(c.fpIQUsed) })
	for i, t := range c.threads {
		t := t
		reg.Sampled(fmt.Sprintf("cpu.inflight_loads.t%d", i),
			func(uint64) float64 { return float64(t.outstanding()) })
		reg.Sampled(fmt.Sprintf("cpu.rob.t%d", i),
			func(uint64) float64 { return float64(t.robCount()) })
		reg.Gauge(fmt.Sprintf("cpu.gated_dispatch.t%d", i),
			func(uint64) float64 { return float64(t.gated) })
		reg.Gauge(fmt.Sprintf("cpu.committed.t%d", i),
			func(uint64) float64 { return float64(t.committed) })
	}
}

// SetMemPressure wires the memory controller's live per-thread pending
// request counts into the Coop fetch policy.
func (c *CPU) SetMemPressure(f func(thread int) int) { c.memPressure = f }

// SetTarget arms per-thread completion bookkeeping: each thread first
// retires warmup instructions (cache warmup, mirroring the paper's
// fast-forward), then the CPU records warmedAt, and finishedAt once target
// further instructions commit. Threads keep executing past their target (to
// preserve contention), as in the paper's methodology.
func (c *CPU) SetTarget(warmup, target uint64) {
	c.warmup = warmup
	c.target = target
}

// WarmedAt returns the cycle thread i finished its warmup instructions
// (0 while still warming when a warmup was configured).
func (c *CPU) WarmedAt(i int) uint64 { return c.threads[i].warmedAt }

// AllWarmed reports whether every thread has completed warmup.
func (c *CPU) AllWarmed() bool {
	if c.warmup == 0 {
		return true
	}
	for _, t := range c.threads {
		if t.warmedAt == 0 {
			return false
		}
	}
	return true
}

// AllFinished reports whether every thread has crossed the target.
func (c *CPU) AllFinished() bool {
	for _, t := range c.threads {
		if t.finishedAt == 0 {
			return false
		}
	}
	return true
}

// Tick advances the core by one cycle. The caller must have run the event
// queue up to now first.
func (c *CPU) Tick(now uint64) {
	c.Cycles++
	c.acted = false
	for _, t := range c.threads {
		t.popMatured(now)
	}
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	c.drainStores(now)
}

// Acted reports whether the last Tick made real progress (fetched,
// dispatched, issued, committed, or drained anything). It is a performance
// hint for the run loop — a working machine is rarely about to go quiet, so
// the loop can defer the ProbeQuiet pass until a Tick comes back idle.
// Correctness never depends on it: a false negative merely delays a skip
// window by a cycle, and skipping less is always exact.
func (c *CPU) Acted() bool { return c.acted }

// meta builds the thread-state snapshot piggybacked on memory requests.
func (c *CPU) meta(t *thread, critical bool) cache.Meta {
	return cache.Meta{
		Thread:   t.id,
		Critical: critical,
		State: mem.ThreadState{
			ROBOccupancy: t.robCount(),
			IQOccupancy:  t.iqInt,
		},
	}
}

// ---------------------------------------------------------------- fetch

func (c *CPU) fetch(now uint64) {
	order := c.fetchOrder(now)
	if len(order) > c.cfg.FetchMaxThreads {
		order = order[:c.cfg.FetchMaxThreads]
	}
	budget := c.cfg.FetchWidth
	for _, t := range order {
		if budget == 0 {
			break
		}
		budget = c.fetchThread(now, t, budget)
	}
}

// fetchThread fetches up to budget instructions for t, stopping at a taken
// branch, an I-cache line miss, or a full frontend. It returns the remaining
// budget.
func (c *CPU) fetchThread(now uint64, t *thread, budget int) int {
	for budget > 0 && t.feLen() < c.cfg.FrontendCap {
		in := t.next()
		line := in.PC &^ 63
		if line != t.curILine {
			f := c.getIFill()
			f.t, f.line, f.epoch = t, line, t.epoch
			hit, accepted := c.l1i.Probe(now, line, c.meta(t, false), f)
			if hit || !accepted {
				// The cache retains the callback only for an accepted miss.
				f.t = nil
				c.freeIFills = append(c.freeIFills, f)
			}
			if !hit {
				if accepted {
					t.imissPending = true
					t.imisses++
					c.acted = true
				}
				return budget // stalls this thread; instruction stays peeked
			}
			t.curILine = line
		}
		inst := t.consume()
		t.frontend, t.feHead = pushDeque(t.frontend, t.feHead, feEntry{in: inst, readyAt: now + c.cfg.FrontendDelay})
		budget--
		c.acted = true
		if inst.Kind == workload.Branch && inst.Taken {
			break // a taken branch ends the fetch block
		}
	}
	return budget
}

// ---------------------------------------------------------------- dispatch

func (c *CPU) dispatch(now uint64) {
	budget := c.cfg.DispatchWidth
	n := len(c.threads)
	for i, k := 0, c.rrDispatch%n; i < n && budget > 0; i++ {
		t := c.threads[k]
		if k++; k == n {
			k = 0
		}
		// The gate walks the in-flight loads, and nothing in this loop can
		// change its answer: evaluate it once, when the thread first reaches
		// the gate, and compare occupancies per instruction.
		limit := -1
		for budget > 0 {
			if t.feLen() == 0 || t.frontend[t.feHead].readyAt > now {
				break
			}
			if limit < 0 {
				limit, _ = c.gate(now, t)
			}
			if t.iqInt+t.iqFP >= limit {
				t.gated++
				break
			}
			if !c.dispatchOne(t) {
				break
			}
			budget--
			c.acted = true
		}
	}
	c.rrDispatch++
}

// gate applies the fetch policies' resource feedback at the dispatch stage:
// when the shared issue queues are under pressure, a thread the policy
// considers stalled may not grow its share past an allowance. limit is the
// issue-queue occupancy at which t's dispatch is gated at cycle now
// (math.MaxInt: not at all). flipAt is the first cycle after now at which the
// verdict "occupancy >= limit" can change by time alone, 0 when it cannot. It
// is read-only: dispatch asks it for this Tick, ProbeQuiet for Ticks that may
// never run.
//
// Under the miss-aware policies (FetchStall, DG, DWarn, Coop) the allowance is
// missAllowance for threads experiencing a miss. An open gate closes as the
// oldest in-flight load ages past missAge; a closed one opens when the load
// holding it matures. That is normally a fill event's doing (it sets doneAt to
// the current cycle), but the deep-skip path probes at the cycle before an
// in-span fill's, where the load carries doneAt == now+1 and still looks live:
// the maturity bound lands the clock on the cycle whose Tick first sees the
// gate open. Either flip is reported only while the thread's occupancy is at
// or past the allowance — a limit that moves without moving the verdict is not
// a flip, and reporting it would end quiet spans early.
//
// Under ICOUNT the allowance is the equal share of the queues — ICOUNT's
// priority function drives every thread's in-flight count toward the mean, at
// an equilibrium set by the front-end depth and independent of thread count:
// roughly a quarter of the queue capacity here. With few threads that leaves
// slack; with eight the equal shares sum to well past capacity and ICOUNT
// clogs on MEM mixes, exactly as in the paper.
func (c *CPU) gate(now uint64, t *thread) (limit int, flipAt uint64) {
	n := len(c.threads)
	if n == 1 {
		return math.MaxInt, 0
	}
	total := c.cfg.IntIQ + c.cfg.FPIQ
	if c.cfg.Policy == ICOUNT || c.cfg.Policy == RoundRobin {
		return total / 4, 0
	}
	u := t.oldestLive(now)
	if u == nil {
		return math.MaxInt, 0
	}
	allowance := c.missAllowance(total, n)
	binding := t.iqInt+t.iqFP >= allowance
	if now-u.issuedAt <= c.missAge() {
		if binding {
			flipAt = u.issuedAt + c.missAge() + 1
		}
		return math.MaxInt, flipAt
	}
	if binding && u.doneAt != pendingDone {
		flipAt = u.doneAt
	}
	return allowance, flipAt
}

// missAge is how long a thread's oldest in-flight load must have been
// outstanding before the fetch policy counts the thread as experiencing a
// miss: longer than an L2 hit takes under FetchStall, longer than an L1 hit
// under the data-cache-miss policies.
func (c *CPU) missAge() uint64 {
	if c.cfg.Policy == FetchStall {
		return c.cfg.L1DLatency + c.cfg.L2Latency + 4
	}
	return c.cfg.L1DLatency + 2
}

// missing reports whether t is experiencing a miss at now, by missAge.
func (c *CPU) missing(now uint64, t *thread) bool {
	u := t.oldestLive(now)
	return u != nil && now-u.issuedAt > c.missAge()
}

// missAllowance is the issue-queue share a stalled thread may keep under the
// miss-aware policies: half its equal share, floored at MissIQAllowance. At
// two threads this leaves plenty of memory-level parallelism to the stalled
// thread (the queues are not contended); at eight it pins stalled threads to
// the floor, which is where the policies' anti-clog value shows.
func (c *CPU) missAllowance(total, threads int) int {
	share := total / (2 * threads)
	if share < c.cfg.MissIQAllowance {
		return c.cfg.MissIQAllowance
	}
	return share
}

// canDispatchHead is dispatch's admission test: whether the ROB, the issue
// queue and (for a memory operation) the load or store queue each have room
// for t's oldest frontend instruction.
func (c *CPU) canDispatchHead(t *thread) bool {
	if t.robCount() >= c.cfg.ROBPerThread {
		return false
	}
	switch t.frontend[t.feHead].in.Kind {
	case workload.FPOp:
		return c.fpIQUsed < c.cfg.FPIQ
	case workload.Load:
		return c.intIQUsed < c.cfg.IntIQ && c.lqUsed < c.cfg.LQ
	case workload.Store:
		return c.intIQUsed < c.cfg.IntIQ && c.sqUsed < c.cfg.SQ
	}
	return c.intIQUsed < c.cfg.IntIQ
}

// dispatchOne moves t's oldest frontend instruction into the ROB and issue
// queue; it returns false when a resource (ROB, IQ, LSQ) is exhausted.
func (c *CPU) dispatchOne(t *thread) bool {
	if !c.canDispatchHead(t) {
		return false
	}
	in := t.frontend[t.feHead].in
	fp := in.Kind == workload.FPOp

	seq := t.nextSeq
	t.nextSeq++
	u := t.slot(seq)
	*u = uop{in: in, seq: seq, epoch: t.epoch, tid: int32(t.id), state: stWaiting, doneAt: pendingDone,
		dep1: depSeq(seq, in.Dep1), dep2: depSeq(seq, in.Dep2)}
	c.enqueue(t, u)

	if fp {
		c.fpIQUsed++
		t.iqFP++
	} else {
		c.intIQUsed++
		t.iqInt++
	}
	switch in.Kind {
	case workload.Load:
		c.lqUsed++
		t.lq++
	case workload.Store:
		c.sqUsed++
		t.sq++
	}
	t.feHead++
	if t.feHead == len(t.frontend) {
		t.frontend = t.frontend[:0]
		t.feHead = 0
	}
	return true
}

func depSeq(seq uint64, dist int16) uint64 {
	if dist <= 0 || uint64(dist) > seq {
		return noDep
	}
	return seq - uint64(dist)
}

// ---------------------------------------------------------------- issue

// enqueue enters a waiting uop into the issue queue: it takes the next
// dispatch stamp, parks on each distinct producer whose completion time is
// still unknown, and joins the ready set at once when there is none. Restore
// rebuilds the wakeup state through the same path.
func (c *CPU) enqueue(t *thread, u *uop) {
	u.stamp = c.nextStamp
	c.nextStamp++
	self := link(u.seq&t.robMask)<<1 + 1
	for k := range u.next {
		p := t.producer(u, k)
		if p == nil {
			continue
		}
		if p.doneAt != pendingDone {
			if p.doneAt > u.readyAt {
				u.readyAt = p.doneAt
			}
			continue
		}
		u.next[k] = p.cons
		p.cons = self + link(k)
		u.unknown++
	}
	if u.unknown == 0 {
		c.ready = append(c.ready, u) // the newest stamp sorts last
	}
}

// wakeConsumers publishes producer p's now-known completion time to the
// uops parked on it. A consumer whose last unknown producer this was enters
// the ready set at its dispatch-order position. When p is issuing, issue()
// is mid-walk with its cursor on p: the consumer is younger than p and than
// everything at or before the cursor, so it lands ahead of the cursor and
// the same walk reaches it — which is how a zero-latency producer's consumer
// issues in the same cycle.
func (c *CPU) wakeConsumers(t *thread, p *uop) {
	for l := p.cons; l != 0; {
		v := &t.rob[(l-1)>>1]
		l = v.next[(l-1)&1]
		if p.doneAt > v.readyAt {
			v.readyAt = p.doneAt
		}
		if v.unknown--; v.unknown > 0 {
			continue
		}
		lo, hi := 0, len(c.ready)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); c.ready[mid].stamp < v.stamp {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c.ready = append(c.ready, nil)
		copy(c.ready[lo+1:], c.ready[lo:])
		c.ready[lo] = v
	}
	p.cons = 0
}

// issue walks the ready set in dispatch order, issuing every uop whose
// ready time has arrived while issue width and a functional unit remain.
// Uops with an unknown producer are not in the set, so the walk visits
// exactly the entries a scan of the whole queue would have acted on, in the
// same order.
func (c *CPU) issue(now uint64) {
	intLeft, fpLeft := c.cfg.IntIssueWidth, c.cfg.FPIssueWidth
	aluInt, multInt := c.cfg.IntALU, c.cfg.IntMult
	aluFP, multFP := c.cfg.FPALU, c.cfg.FPMult

	// The walk compacts in place: c.ready[:w] are the entries kept so far,
	// and the slots from w up to the cursor hold stale copies of older
	// entries, which leaves the slice sorted for a mid-walk wakeConsumers.
	w := 0
	for i := 0; i < len(c.ready); i++ {
		u := c.ready[i]
		if intLeft == 0 && fpLeft == 0 {
			w += copy(c.ready[w:], c.ready[i:]) // both widths spent: nothing else can issue
			break
		}
		c.ready[w] = u
		w++ // kept, unless it issues below
		if u.readyAt > now {
			continue
		}
		fp := u.in.Kind == workload.FPOp
		width, unit := &intLeft, &aluInt
		switch long := u.in.Lat >= 7; {
		case fp && long:
			width, unit = &fpLeft, &multFP
		case fp:
			width, unit = &fpLeft, &aluFP
		case long:
			unit = &multInt
		}
		if *width == 0 || *unit == 0 {
			continue
		}
		t := c.threads[u.tid]
		if u.in.Kind == workload.Load {
			// A load issues with doneAt still pendingDone; its consumers stay
			// parked until the fill lands. MSHR full: retry next cycle.
			if !c.issueLoad(now, t, u) {
				continue
			}
		} else {
			c.issueALU(now, t, u)
			c.wakeConsumers(t, u)
		}
		*width--
		*unit--
		w-- // issued: leave the issue queue
		c.acted = true
		if fp {
			c.fpIQUsed--
			t.iqFP--
		} else {
			c.intIQUsed--
			t.iqInt--
		}
	}
	c.ready = c.ready[:w]
}

func (c *CPU) issueALU(now uint64, t *thread, u *uop) {
	u.state = stIssued
	u.issuedAt = now
	u.doneAt = now + uint64(u.in.Lat)
	switch u.in.Kind {
	case workload.Store:
		t.stores++
		u.doneAt = now + 1 // address generation; data written at commit
	case workload.Branch:
		if u.in.Mispredict {
			e := c.getBrEvent()
			e.t, e.seq, e.epoch = t, u.seq, u.epoch
			c.q.ScheduleHandler(u.doneAt, e)
		}
	}
}

func (c *CPU) issueLoad(now uint64, t *thread, u *uop) bool {
	f := c.getLoadFill()
	f.t, f.seq, f.epoch = t, u.seq, u.epoch
	ok := c.l1d.ReadLine(now+1, u.in.Addr, c.meta(t, true), f)
	if !ok {
		f.t = nil
		c.freeLoadFills = append(c.freeLoadFills, f)
		return false
	}
	u.state = stIssued
	u.issuedAt = now
	u.doneAt = pendingDone
	t.loads++
	t.inFlight, t.ifHead = pushDeque(t.inFlight, t.ifHead, u)
	return true
}

// ---------------------------------------------------------------- branches

// resolveBranch fires when a mispredicted branch finishes executing: all
// younger instructions of the thread are squashed and queued for replay, and
// fetch stalls for the mispredict penalty.
func (c *CPU) resolveBranch(now uint64, t *thread, seq, epoch uint64) {
	u := t.slot(seq)
	if u.seq != seq || u.epoch != epoch {
		return // itself squashed by an older branch first
	}
	t.squashes++

	// Collect the squashed suffix (ROB entries younger than the branch,
	// then the frontend, then the peeked instruction) for replay, ahead of
	// anything already queued for replay. The list is built in the thread's
	// spare buffer, which then swaps with the old replay slice.
	replay := t.replayScratch[:0]
	for s := seq + 1; s < t.nextSeq; s++ {
		replay = append(replay, t.slot(s).in)
	}
	// Release youngest-first, so each parked uop's nodes sit at the head of
	// the lists they are unlinked from. Replayed instructions re-enter the
	// same seq and slot, so no link or ready-set entry may outlive the squash.
	wasReady := false
	for s := t.nextSeq; s > seq+1; {
		s--
		v := t.slot(s)
		if v.state == stWaiting {
			if v.unknown > 0 {
				t.unpark(v)
			} else {
				wasReady = true
			}
		}
		c.releaseSquashed(t, v)
		v.epoch = poisoned // stale callbacks miss
	}
	if wasReady {
		keep := c.ready[:0]
		for _, v := range c.ready {
			if v.epoch != poisoned {
				keep = append(keep, v)
			}
		}
		c.ready = keep
	}
	for _, fe := range t.frontend[t.feHead:] {
		replay = append(replay, fe.in)
	}
	if t.hasPeeked {
		replay = append(replay, t.peeked)
		t.hasPeeked = false
	}
	replay = append(replay, t.replay[t.rpHead:]...)
	t.replayScratch = t.replay[:0]
	t.replay, t.rpHead = replay, 0
	t.frontend = t.frontend[:0]
	t.feHead = 0
	t.nextSeq = seq + 1
	t.epoch++
	t.imissPending = false
	t.curILine = ^uint64(0)
	t.fetchBlockedUntil = now + c.cfg.MispredictPenalty

	// Drop squashed loads from the in-flight list (everything younger than
	// the branch; older loads, whatever epoch they were fetched in, stay).
	kept := t.inFlight[:0]
	for _, v := range t.inFlight[t.ifHead:] {
		if v.seq <= seq && v.epoch != poisoned {
			kept = append(kept, v)
		}
	}
	t.inFlight, t.ifHead = kept, 0
}

// unpark removes squashed waiting uop v from the consumer lists it is parked
// on: those of its distinct producers whose completion is still unknown.
func (t *thread) unpark(v *uop) {
	for k := range v.next {
		if p := t.producer(v, k); p != nil && p.doneAt == pendingDone {
			p.cons = v.next[k] // v's node is the list head: everything younger is already gone
		}
	}
}

// releaseSquashed returns a squashed uop's queue resources.
func (c *CPU) releaseSquashed(t *thread, v *uop) {
	if v.state == stWaiting {
		if v.in.Kind == workload.FPOp {
			c.fpIQUsed--
			t.iqFP--
		} else {
			c.intIQUsed--
			t.iqInt--
		}
	}
	switch v.in.Kind {
	case workload.Load:
		c.lqUsed--
		t.lq--
	case workload.Store:
		c.sqUsed--
		t.sq--
	}
}

// ---------------------------------------------------------------- commit

func (c *CPU) commit(now uint64) {
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	for i, k := 0, c.rrCommit%n; i < n && budget > 0; i++ {
		t := c.threads[k]
		if k++; k == n {
			k = 0
		}
		for budget > 0 && t.robCount() > 0 {
			u := t.slot(t.headSeq)
			if u.state == stIssued && u.doneAt <= now {
				u.state = stDone
			}
			if u.state != stDone {
				break
			}
			if u.in.Kind == workload.Store {
				if c.storeBufferFull() {
					break // stall commit
				}
				c.pendingStores, c.psHead = pushDeque(c.pendingStores, c.psHead,
					pendingStore{addr: u.in.Addr, meta: c.meta(t, false)})
				c.sqUsed--
				t.sq--
			}
			if u.in.Kind == workload.Load {
				c.lqUsed--
				t.lq--
			}
			t.headSeq++
			t.committed++
			c.TotalCommitted++
			budget--
			c.acted = true
			if t.warmedAt == 0 && t.committed >= c.warmup {
				t.warmedAt = now
			}
			if t.finishedAt == 0 && c.target > 0 && t.committed >= c.warmup+c.target {
				t.finishedAt = now
			}
		}
	}
	c.rrCommit++
}

// storeBufferFull reports whether the committed-store buffer holds its SQ
// entries, which stalls commit at a store (and, for ProbeQuiet, parks it).
func (c *CPU) storeBufferFull() bool { return len(c.pendingStores)-c.psHead >= c.cfg.SQ }

// drainStores pushes committed stores into the L1D; MSHR backpressure keeps
// them buffered.
func (c *CPU) drainStores(now uint64) {
	for c.psHead < len(c.pendingStores) {
		s := c.pendingStores[c.psHead]
		if !c.l1d.Store(now, s.addr, s.meta) {
			return
		}
		c.psHead++
		c.acted = true
	}
	c.pendingStores = c.pendingStores[:0]
	c.psHead = 0
}
