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
	if c.IntIQ > math.MaxUint16 || c.FPIQ > math.MaxUint16-c.IntIQ {
		// A uop names its entry as 1 + a uint16 index.
		return fmt.Errorf("cpu: %d+%d issue-queue entries exceed the %d a uop can name", c.IntIQ, c.FPIQ, math.MaxUint16)
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
// 1 + (the consumer's issue-queue entry<<1 | which of its two deps the node
// serves).
type link uint32

// uop is one in-flight instruction: one ROB slot. What only a waiting uop
// needs lives in its issue-queue entry, so a slot stays small.
type uop struct {
	in       workload.Instr // retained for replay after squash
	seq      uint64
	epoch    uint64
	doneAt   uint64 // pendingDone until the completion time is known: while waiting, or a load in flight
	issuedAt uint64
	cons     link   // head of this uop's consumer list (DESIGN §11)
	iq       uint16 // 1 + its issue-queue entry while waiting, 0 otherwise
	tid      uint8  // owning hardware thread
	state    uint8
}

// iqEntry is one issue-queue entry: a waiting uop's wakeup state (DESIGN
// §11). A waiting uop is linked into the consumer list of each distinct
// in-ROB producer whose doneAt is still pendingDone, and unknown counts those
// links. When a producer's completion time becomes known (an ALU issue, a
// load fill) it walks its list, folds its doneAt into each consumer's
// readyAt, and a consumer whose count reaches zero enters the CPU's ready set
// — so issue never looks at a uop that cannot issue. Lists are pushed
// newest-first: a squash, which unlinks youngest-first, always finds the node
// to drop at its producer's head.
type iqEntry struct {
	u       *uop
	dep     [2]uint64 // absolute producer sequence numbers (noDep = none)
	readyAt uint64    // max doneAt over the producers known so far
	stamp   uint64    // global dispatch order: the ready set's sort key
	next    [2]link   // this entry's node in dep[0]'s / dep[1]'s producer list
	unknown uint8     // producers whose completion time is not yet known
}

// thread is the per-hardware-thread state.
//
// Its instruction stream is one seq-indexed store. Seq s is always the s-th
// instruction of the thread's program — a squash refetches the correct-path
// suffix — so cursors into the stream are all the pipeline front needs:
//
//	[headSeq, nextSeq)   the live ROB
//	[nextSeq, fetchSeq)  the frontend; seq s reaches dispatch at feReady[s&feMask]
//	[fetchSeq, genSeq)   generated, awaiting (re)fetch: a squashed suffix, or
//	                     the instruction an I-miss stalled
//
// An instruction below dispatched, the first seq never dispatched, is read
// from its ROB slot (a squash poisons a slot's epoch but keeps its in, and
// re-dispatching writes the same instruction back); one at or above it from
// the pending ring. A squash moves nextSeq and fetchSeq back and copies
// nothing, and fetch asks the generator only once it reaches genSeq.
// checkCursors states the invariants that keep every read in its ring.
type thread struct {
	id  int
	gen Source

	// rob is a power-of-two ring indexed by seq&robMask; occupancy is still
	// bounded by Config.ROBPerThread.
	rob        []uop
	robMask    uint64
	headSeq    uint64
	nextSeq    uint64
	fetchSeq   uint64
	dispatched uint64
	genSeq     uint64
	pending    []workload.Instr // ring by seq&feMask: [dispatched, genSeq)
	feReady    []uint64         // ring by seq&feMask: [nextSeq, fetchSeq)
	feMask     uint64

	epoch     uint64
	iqInt     int
	iqFP      int
	lq, sq    int // this thread's LQ/SQ occupancy
	committed uint64

	// inFlight is a head-indexed deque: live entries are inFlight[ifHead:], a
	// pop advances the head, and pushes compact in place — re-slicing from
	// the front would give the buffer's capacity away and make every refill
	// reallocate.
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

// checkCursors reports the first of the stream invariants t breaks, against
// cfg. They hold after every cycle, and each keeps a read in its ring: the
// frontend fits feReady; the instructions generated but never dispatched fit
// pending (fetch generates only while the frontend has room, and a squash
// moves neither genSeq nor dispatched); and a ROB slot replayed from is never
// a live uop's slot.
func (t *thread) checkCursors(cfg Config) error {
	switch {
	case t.headSeq > t.nextSeq || t.nextSeq > t.fetchSeq || t.fetchSeq > t.genSeq:
		return fmt.Errorf("stream order: headSeq %d, nextSeq %d, fetchSeq %d, genSeq %d", t.headSeq, t.nextSeq, t.fetchSeq, t.genSeq)
	case t.nextSeq > t.dispatched || t.dispatched > t.genSeq:
		return fmt.Errorf("dispatch order: nextSeq %d, dispatched %d, genSeq %d", t.nextSeq, t.dispatched, t.genSeq)
	case t.genSeq-t.dispatched > uint64(cfg.FrontendCap):
		return fmt.Errorf("pending ring: %d generated past dispatched, FrontendCap %d", t.genSeq-t.dispatched, cfg.FrontendCap)
	case t.fetchSeq-t.nextSeq > uint64(cfg.FrontendCap):
		return fmt.Errorf("frontend ring: %d fetched past nextSeq, FrontendCap %d", t.fetchSeq-t.nextSeq, cfg.FrontendCap)
	case t.dispatched-t.headSeq > uint64(cfg.ROBPerThread):
		return fmt.Errorf("ROB ring: %d dispatched past headSeq, ROBPerThread %d", t.dispatched-t.headSeq, cfg.ROBPerThread)
	}
	return nil
}

func (t *thread) slot(seq uint64) *uop { return &t.rob[seq&t.robMask] }

// producer returns the in-ROB uop that e's k-th dep names, or nil when there
// is none to wait for: no dep, a committed one, or dep[1] repeating dep[0]
// (one producer is linked and counted once).
func (t *thread) producer(e *iqEntry, k int) *uop {
	dep := e.dep[k]
	if dep == noDep || dep < t.headSeq || (k == 1 && dep == e.dep[0]) {
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

// instr returns the instruction with sequence number seq, which must lie in
// [headSeq, genSeq).
func (t *thread) instr(seq uint64) *workload.Instr {
	if seq < t.dispatched {
		return &t.slot(seq).in
	}
	return &t.pending[seq&t.feMask]
}

// feLen is the live frontend depth.
func (t *thread) feLen() int { return int(t.fetchSeq - t.nextSeq) }

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
		c.wakeConsumers(v)
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

	// iq is the issue queue: IntIQ+FPIQ entries, the unused ones on the
	// LIFO free list iqFree. ready is the ready set: the entries whose
	// producers all have a known completion time (unknown == 0), in dispatch
	// order. It is the only part of the issue queue issue() and ProbeQuiet
	// look at; the rest are parked on their producers' consumer lists.
	iq        []iqEntry
	iqFree    []uint16
	ready     []uint16
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

// Source produces a thread's dynamic instruction stream. In production it is
// a *workload.Feed, which hands out a generator's instructions from blocks
// filled ahead; cmd/bench's twin wires *workload.Gen directly, and tests
// substitute scripted streams.
type Source interface {
	Next() workload.Instr
}

// MaxThreads bounds the hardware contexts: QuietFx tracks gated dispatch in a
// 64-bit mask. Table 1's SMT contexts number at most 8, so the bound costs
// nothing real.
const MaxThreads = 64

// New assembles a CPU over the given per-thread instruction sources and L1
// caches.
func New(q *event.Queue, cfg Config, gens []Source, l1i, l1d *cache.Level) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("cpu: no threads")
	}
	if len(gens) > MaxThreads {
		return nil, fmt.Errorf("cpu: %d threads exceeds the %d-context limit", len(gens), MaxThreads)
	}
	iqLen := cfg.IntIQ + cfg.FPIQ
	c := &CPU{
		cfg: cfg, q: q, l1i: l1i, l1d: l1d,
		iq:             make([]iqEntry, iqLen),
		iqFree:         make([]uint16, 0, iqLen),
		ready:          make([]uint16, 0, iqLen),
		scratchThreads: make([]*thread, 0, len(gens)),
	}
	c.resetIQ()
	robLen := ring(cfg.ROBPerThread)
	feSlots := ring(cfg.FrontendCap)
	for i, g := range gens {
		t := &thread{
			id:       i,
			gen:      g,
			rob:      make([]uop, robLen),
			robMask:  uint64(robLen - 1),
			pending:  make([]workload.Instr, feSlots),
			feReady:  make([]uint64, feSlots),
			feMask:   uint64(feSlots - 1),
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

// ring is the smallest power of two holding n entries.
func ring(n int) int { return 1 << bits.Len(uint(n-1)) }

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
func (c *CPU) meta(t *thread) cache.Meta {
	return cache.Meta{
		Thread: t.id,
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
		seq := t.fetchSeq
		if seq == t.genSeq {
			t.pending[seq&t.feMask] = t.gen.Next()
			t.genSeq++
		}
		in := t.instr(seq)
		line := in.PC &^ 63
		if line != t.curILine {
			f := c.getIFill()
			f.t, f.line, f.epoch = t, line, t.epoch
			hit, accepted := c.l1i.Probe(now, line, c.meta(t), f)
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
				return budget // stalls this thread; the instruction waits at fetchSeq
			}
			t.curILine = line
		}
		t.feReady[seq&t.feMask] = now + c.cfg.FrontendDelay
		t.fetchSeq++
		budget--
		c.acted = true
		if in.Kind == workload.Branch && in.Taken {
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
			if t.feLen() == 0 || t.feReady[t.nextSeq&t.feMask] > now {
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
	switch t.instr(t.nextSeq).Kind {
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
	seq := t.nextSeq
	in := *t.instr(seq)
	fp := in.Kind == workload.FPOp
	t.nextSeq++
	t.dispatched = max(t.dispatched, t.nextSeq)
	u := t.slot(seq)
	*u = uop{in: in, seq: seq, epoch: t.epoch, tid: uint8(t.id), state: stWaiting, doneAt: pendingDone}
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
	return true
}

func depSeq(seq uint64, dist int16) uint64 {
	if dist <= 0 || uint64(dist) > seq {
		return noDep
	}
	return seq - uint64(dist)
}

// ---------------------------------------------------------------- issue

// resetIQ empties the issue queue: every entry on the free list, lowest
// index on top, and nothing ready.
func (c *CPU) resetIQ() {
	c.ready, c.iqFree, c.nextStamp = c.ready[:0], c.iqFree[:0], 0
	for i := len(c.iq); i > 0; {
		i--
		c.iqFree = append(c.iqFree, uint16(i))
	}
}

// enqueue enters a waiting uop into the issue queue: it takes a free entry
// and the next dispatch stamp, computes the producer seqs, parks on each
// distinct producer whose completion time is still unknown, and joins the
// ready set at once when there is none. Restore rebuilds the wakeup state
// through the same path.
func (c *CPU) enqueue(t *thread, u *uop) {
	n := len(c.iqFree) - 1
	idx := c.iqFree[n]
	c.iqFree = c.iqFree[:n]
	u.iq = idx + 1
	e := &c.iq[idx]
	e.u = u
	e.dep = [2]uint64{depSeq(u.seq, u.in.Dep1), depSeq(u.seq, u.in.Dep2)}
	e.readyAt, e.stamp = 0, c.nextStamp
	e.next, e.unknown = [2]link{}, 0
	c.nextStamp++
	self := link(idx)<<1 + 1
	for k := range e.next {
		p := t.producer(e, k)
		if p == nil {
			continue
		}
		if p.doneAt != pendingDone {
			if p.doneAt > e.readyAt {
				e.readyAt = p.doneAt
			}
			continue
		}
		e.next[k] = p.cons
		p.cons = self + link(k)
		e.unknown++
	}
	if e.unknown == 0 {
		c.ready = append(c.ready, idx) // the newest stamp sorts last
	}
}

// dequeue returns u's issue-queue entry to the free list.
func (c *CPU) dequeue(u *uop) {
	c.iqFree = append(c.iqFree, u.iq-1)
	u.iq = 0
}

// wakeConsumers publishes producer p's now-known completion time to the
// entries parked on it. A consumer whose last unknown producer this was
// enters the ready set at its dispatch-order position. When p is issuing,
// issue() is mid-walk with its cursor on p: the consumer is younger than p
// and than everything at or before the cursor, so it lands ahead of the
// cursor and the same walk reaches it — which is how a zero-latency
// producer's consumer issues in the same cycle.
func (c *CPU) wakeConsumers(p *uop) {
	for l := p.cons; l != 0; {
		idx := uint16((l - 1) >> 1)
		e := &c.iq[idx]
		l = e.next[(l-1)&1]
		if p.doneAt > e.readyAt {
			e.readyAt = p.doneAt
		}
		if e.unknown--; e.unknown > 0 {
			continue
		}
		lo, hi := 0, len(c.ready)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); c.iq[c.ready[mid]].stamp < e.stamp {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c.ready = append(c.ready, 0)
		copy(c.ready[lo+1:], c.ready[lo:])
		c.ready[lo] = idx
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
		idx := c.ready[i]
		if intLeft == 0 && fpLeft == 0 {
			w += copy(c.ready[w:], c.ready[i:]) // both widths spent: nothing else can issue
			break
		}
		c.ready[w] = idx
		w++ // kept, unless it issues below
		e := &c.iq[idx]
		if e.readyAt > now {
			continue
		}
		u := e.u
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
			c.wakeConsumers(u)
		}
		c.dequeue(u)
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
	ok := c.l1d.ReadLine(now+1, u.in.Addr, c.meta(t), f)
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
// younger instructions of the thread are squashed, fetch restarts at the
// first of them, and it stalls for the mispredict penalty.
func (c *CPU) resolveBranch(now uint64, t *thread, seq, epoch uint64) {
	u := t.slot(seq)
	if u.seq != seq || u.epoch != epoch {
		return // itself squashed by an older branch first
	}
	t.squashes++

	// Release youngest-first, so each parked uop's nodes sit at the head of
	// the lists they are unlinked from. Replayed instructions re-enter the
	// same seq and slot, so no link or ready-set entry may outlive the squash;
	// each slot keeps its in, which is what the refetch reads.
	wasReady := false
	for s := t.nextSeq; s > seq+1; {
		s--
		v := t.slot(s)
		if v.iq != 0 {
			if e := &c.iq[v.iq-1]; e.unknown > 0 {
				t.unpark(e)
			} else {
				wasReady = true
			}
			c.dequeue(v)
		}
		c.releaseSquashed(t, v)
		v.epoch = poisoned // stale callbacks miss
	}
	if wasReady {
		keep := c.ready[:0]
		for _, idx := range c.ready {
			if c.iq[idx].u.epoch != poisoned {
				keep = append(keep, idx)
			}
		}
		c.ready = keep
	}
	t.nextSeq, t.fetchSeq = seq+1, seq+1
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

// unpark removes a squashed uop's entry e from the consumer lists it is
// parked on: those of its distinct producers whose completion is still
// unknown.
func (t *thread) unpark(e *iqEntry) {
	for k := range e.next {
		if p := t.producer(e, k); p != nil && p.doneAt == pendingDone {
			p.cons = e.next[k] // e's node is the list head: everything younger is already gone
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
					pendingStore{addr: u.in.Addr, meta: c.meta(t)})
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
