// Package cache implements the non-blocking, write-back cache hierarchy of
// the simulated machine: set-associative levels with LRU replacement,
// MSHR-limited miss handling with miss merging, dirty-victim writebacks, and
// "perfect" (always-hit) variants used for the paper's CPI-breakdown runs.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/obs"
	"smtdram/internal/snap"
)

// Meta carries the processor-side context of an access down the hierarchy so
// the memory controller can apply thread-aware scheduling.
type Meta struct {
	// Thread is the issuing hardware thread (mem.InvalidThread for
	// writebacks).
	Thread int
	// Critical marks demand accesses the processor is stalled on.
	Critical bool
	// State is the thread's resource-occupancy snapshot at issue time.
	State mem.ThreadState
}

// Backend is a level that can service line fills and accept writebacks. Both
// methods return false when the component is out of buffering and the caller
// must retry.
type Backend interface {
	// ReadLine requests a full line; done fires when the critical word (we
	// model whole-line delivery) arrives. done is a typed completion carrier
	// (not a closure) so in-flight fills can be named by the snapshot codec;
	// tests can wrap a plain function with event.FillFunc.
	ReadLine(now uint64, addr uint64, meta Meta, done event.Filler) bool
	// WriteLine hands a dirty line down; nobody waits for it.
	WriteLine(now uint64, addr uint64, meta Meta) bool
}

// Config sizes one cache level.
type Config struct {
	// Name labels the level in stats output ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// LineBytes is the line size (64 throughout the paper).
	LineBytes int
	// Latency is the lookup latency in cycles.
	Latency uint64
	// MSHRs bounds concurrent outstanding misses (16 per cache in Table 1).
	MSHRs int
	// Perfect makes every access hit, modeling the paper's infinitely large
	// cache runs used to attribute CPI to hierarchy levels.
	Perfect bool
	// PrefetchNextLine enables next-line prefetching on demand misses,
	// through the dedicated PrefetchMSHRs pool (Table 1: 4/cache).
	PrefetchNextLine bool
	// PrefetchMSHRs bounds concurrent prefetches (default 4 when
	// prefetching is enabled).
	PrefetchMSHRs int
}

// Validate rejects configurations the set math cannot support.
func (c Config) Validate() error {
	if c.Perfect {
		return nil
	}
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Assoc != 0 || lines/c.Assoc == 0 {
		return fmt.Errorf("cache %s: %d lines not divisible into %d-way sets", c.Name, lines, c.Assoc)
	}
	if c.LineBytes*(lines/c.Assoc) < 1<<flagBits {
		// A tag is an address less log2(LineBytes × sets) bits, and shares its
		// word with the line's flags.
		return fmt.Errorf("cache %s: %d-byte lines in %d sets leave tags wider than %d bits", c.Name, c.LineBytes, lines/c.Assoc, 64-flagBits)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: need at least one MSHR", c.Name)
	}
	return nil
}

// line is one way of one set, 16 bytes: w is tag<<flagBits under the three
// flags (zero: an empty way), used the LRU stamp.
type line struct {
	w    uint64
	used uint64
}

const (
	lineValid      uint64 = 1 << iota
	lineDirty             // written since the fill
	linePrefetched        // installed by a prefetch, not yet demanded
	flagBits       = iota
)

// mshr tracks one outstanding miss. MSHRs are recycled through the level's
// free list; each is a dual-role event object — its OnEvent is the issue
// (and issue-retry) event, its OnFill the data-arrival continuation — so the
// steady-state miss path allocates neither closures nor tracker structs, and
// both roles serialize as one typed reference.
type mshr struct {
	addr    uint64
	waiters []event.Filler
	dirty   bool // a store merged into this miss; mark line dirty on fill
	issued  bool // handed to the lower level (vs still retrying)

	l    *Level
	meta Meta // processor context of the allocating access
}

// OnEvent is the issue (and issue-retry) event: hand the fill request to the
// lower level, backing off while it is saturated.
func (m *mshr) OnEvent(now uint64) {
	if m.l.lower.ReadLine(now, m.addr, m.meta, m) {
		m.issued = true
		return
	}
	m.l.q.ScheduleHandler(now+retryGap, m)
}

// OnFill installs the returned line, releases the MSHR, and wakes all
// waiters.
func (m *mshr) OnFill(now uint64) {
	l := m.l
	var flags uint64
	if m.dirty {
		flags = lineDirty
	}
	l.install(now, m.addr, flags)
	i, last := slices.Index(l.mshrs, m), len(l.mshrs)-1
	l.mshrs[i], l.mshrs[last] = l.mshrs[last], nil
	l.mshrs = l.mshrs[:last]
	if l.MissEnd != nil {
		l.MissEnd(m.meta)
	}
	for _, w := range m.waiters {
		w.OnFill(now)
	}
	l.releaseMSHR(m)
	l.drainWB(now)
}

// SnapRef implements event.RefMaker: a live MSHR is named by its level and
// line address (the level's MSHR file resolves it at restore).
func (m *mshr) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCacheMSHR, Args: []uint64{uint64(m.l.snapID), m.addr}}
}

// Stats counts per-level activity.
type Stats struct {
	Accesses   uint64 // demand reads + writes reaching this level
	Misses     uint64 // demand misses (MSHR allocations + merges are split below)
	Merged     uint64 // misses merged into an existing MSHR
	Writebacks uint64 // dirty victims pushed down
	MSHRFull   uint64 // rejections due to MSHR exhaustion
}

// MissRate is Misses/Accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Level is one cache level. It implements Backend so levels stack.
type Level struct {
	cfg   Config
	q     *event.Queue
	lower Backend
	// lines is every way of every set in one slab; set si is
	// lines[si*assoc:][:assoc].
	lines []line
	assoc uint64
	nsets uint64
	// lineShift is log2(LineBytes); setShift is log2(nsets), or -1 when the
	// set count is not a power of two and index must divide.
	lineShift uint
	setShift  int
	// mshrs is the MSHR file: at most cfg.MSHRs live misses in no order, one
	// per line address, found by scanning (Table 1 has 16 of them).
	mshrs []*mshr
	tick  uint64 // LRU clock

	// snapID names this level in snapshot references (see SetSnapID).
	snapID uint8

	// pendingWB holds dirty victims the lower level refused; retried on a
	// timer so eviction never blocks the fill path.
	pendingWB []wbEntry
	wbretry   wbRetry // pre-bound writeback retry event

	// freeMSHRs recycles miss trackers and their bound fill callbacks.
	freeMSHRs []*mshr

	// MissBegin/MissEnd, when set, fire when a demand miss allocates an
	// MSHR and when its fill returns. The CPU uses these to track per-thread
	// outstanding-miss state for the DG/DWarn/Fetch-Stall policies.
	MissBegin func(meta Meta)
	MissEnd   func(meta Meta)

	// Wake, when set, fires whenever a fill installs a line at this level.
	// The two-speed clock (DESIGN §11) sets it on the L1s: an install there
	// can change what the CPU's next Tick does (a parked access can proceed,
	// an MSHR frees), so it must end a deep-skip span. Lower levels leave it
	// nil — their fills stay invisible to the CPU until a chained fill
	// reaches an L1.
	Wake func()

	// prefetch machinery (see prefetch.go)
	pfInFlight int
	pfPending  map[uint64]struct{}

	Stats Stats
	// Prefetch counts prefetcher activity (zero when disabled).
	Prefetch prefetchStats
}

type wbEntry struct {
	addr uint64
	meta Meta
}

// wbRetry is the writeback-drain timer; one lives in each Level so arming a
// retry never allocates.
type wbRetry struct{ l *Level }

func (w *wbRetry) OnEvent(now uint64) { w.l.drainWB(now) }

// SnapRef implements event.RefMaker (resolved to the level's embedded timer).
func (w *wbRetry) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCacheWBRetry, Args: []uint64{uint64(w.l.snapID)}}
}

var _ Backend = (*Level)(nil)

// New builds a cache level on top of lower.
func New(q *event.Queue, cfg Config, lower Backend) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PrefetchNextLine && cfg.PrefetchMSHRs == 0 {
		cfg.PrefetchMSHRs = 4
	}
	l := &Level{
		cfg: cfg, q: q, lower: lower,
		mshrs:     make([]*mshr, 0, cfg.MSHRs),
		pfPending: make(map[uint64]struct{}),
	}
	l.wbretry = wbRetry{l: l}
	if !cfg.Perfect {
		l.nsets = uint64(cfg.SizeBytes / cfg.LineBytes / cfg.Assoc)
		l.lineShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
		l.setShift = -1
		if l.nsets&(l.nsets-1) == 0 {
			l.setShift = bits.TrailingZeros64(l.nsets)
		}
		l.assoc = uint64(cfg.Assoc)
		l.lines = make([]line, l.nsets*l.assoc)
	}
	return l, nil
}

// Name returns the configured level name.
func (l *Level) Name() string { return l.cfg.Name }

// Config returns the level's configuration.
func (l *Level) Config() Config { return l.cfg }

// OutstandingMisses reports live MSHR occupancy.
func (l *Level) OutstandingMisses() int { return len(l.mshrs) }

// mshrFor returns the live miss on line la, or nil.
func (l *Level) mshrFor(la uint64) *mshr {
	for _, m := range l.mshrs {
		if m.addr == la {
			return m
		}
	}
	return nil
}

func (l *Level) lineAddr(addr uint64) uint64 { return addr &^ uint64(l.cfg.LineBytes-1) }

// index splits a line address into its set index and tag: shift and mask
// when the set count is a power of two, divide otherwise. It is the one
// place the set geometry is applied; victimAddr inverts it.
func (l *Level) index(la uint64) (set, tag uint64) {
	n := la >> l.lineShift
	if l.setShift >= 0 {
		return n & (l.nsets - 1), n >> uint(l.setShift)
	}
	return n % l.nsets, n / l.nsets
}

// victimAddr rebuilds the line address of the way holding tag in set.
func (l *Level) victimAddr(set, tag uint64) uint64 { return (tag*l.nsets + set) << l.lineShift }

// set returns the ways of set si.
func (l *Level) set(si uint64) []line { return l.lines[si*l.assoc:][:l.assoc] }

// lookup returns the way holding addr, or nil.
func (l *Level) lookup(la uint64) *line {
	si, tag := l.index(la)
	set, want := l.set(si), tag<<flagBits|lineValid
	for i := range set {
		if set[i].w&^(lineDirty|linePrefetched) == want {
			return &set[i]
		}
	}
	return nil
}

// ReadLine implements Backend.
func (l *Level) ReadLine(now uint64, addr uint64, meta Meta, done event.Filler) bool {
	la := l.lineAddr(addr)
	l.Stats.Accesses++
	if l.cfg.Perfect {
		l.complete(now+l.cfg.Latency, done)
		return true
	}
	if ln := l.lookup(la); ln != nil {
		l.tick++
		ln.used = l.tick
		l.notePrefetchHit(now, la, ln, meta)
		l.complete(now+l.cfg.Latency, done)
		return true
	}
	return l.miss(now, la, meta, done, false)
}

// Probe is the instruction-fetch port: it reports a hit synchronously (so
// fetch can continue in the same cycle) and starts a fill on a miss, calling
// fill when the line arrives. accepted is false when the MSHRs are full and
// no fill was started; the caller retries next cycle.
func (l *Level) Probe(now uint64, addr uint64, meta Meta, fill event.Filler) (hit, accepted bool) {
	la := l.lineAddr(addr)
	l.Stats.Accesses++
	if l.cfg.Perfect {
		return true, true
	}
	if ln := l.lookup(la); ln != nil {
		l.tick++
		ln.used = l.tick
		l.notePrefetchHit(now, la, ln, meta)
		return true, true
	}
	return false, l.miss(now, la, meta, fill, false)
}

// WriteLine implements Backend: a full dirty line arriving from the level
// above (a writeback). The whole line is present, so no fetch is needed —
// it is installed directly, dirty. Treating writebacks as write-allocate
// stores would refetch every dirty victim from below, inflating DRAM reads.
func (l *Level) WriteLine(now uint64, addr uint64, meta Meta) bool {
	la := l.lineAddr(addr)
	l.Stats.Accesses++
	if l.cfg.Perfect {
		return true
	}
	if ln := l.lookup(la); ln != nil {
		l.tick++
		ln.used = l.tick
		ln.w |= lineDirty
		return true
	}
	if m := l.mshrFor(la); m != nil {
		// A fill for this line is in flight; mark it to land dirty.
		m.dirty = true
		return true
	}
	l.install(now, la, lineDirty)
	return true
}

// WouldBlock reports — without touching stats, LRU state, or MSHRs —
// whether a demand access to addr (ReadLine or Store) would currently be
// rejected by MSHR backpressure: the line misses, there is no in-flight MSHR
// to merge into, and the MSHR file is full. While the condition holds, an
// access attempt's only observable effect is one MSHRFull count, and only a
// fill event can change the outcome; the two-speed clock (DESIGN §11) relies
// on both to skip MSHR-blocked windows, replaying the per-cycle MSHRFull
// counts in aggregate.
func (l *Level) WouldBlock(addr uint64) bool {
	if l.cfg.Perfect {
		return false
	}
	la := l.lineAddr(addr)
	if l.lookup(la) != nil {
		return false
	}
	if l.mshrFor(la) != nil {
		return false
	}
	return len(l.mshrs) >= l.cfg.MSHRs
}

// Store is the CPU's store-commit port into the L1D: write-allocate, so a
// miss fetches the line (the store writes only part of it) and dirties it
// on fill.
func (l *Level) Store(now uint64, addr uint64, meta Meta) bool {
	la := l.lineAddr(addr)
	l.Stats.Accesses++
	if l.cfg.Perfect {
		return true
	}
	if ln := l.lookup(la); ln != nil {
		l.tick++
		ln.used = l.tick
		ln.w |= lineDirty
		return true
	}
	return l.miss(now, la, meta, nil, true)
}

// miss allocates or merges an MSHR for la. done may be nil (writes).
func (l *Level) miss(now uint64, la uint64, meta Meta, done event.Filler, dirty bool) bool {
	l.Stats.Misses++
	if m := l.mshrFor(la); m != nil {
		l.Stats.Merged++
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		m.dirty = m.dirty || dirty
		return true
	}
	if len(l.mshrs) >= l.cfg.MSHRs {
		l.Stats.Misses-- // rejected, caller retries: not a serviced miss
		l.Stats.Accesses--
		l.Stats.MSHRFull++
		return false
	}
	m := l.getMSHR()
	m.addr, m.dirty, m.meta = la, dirty, meta
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	l.mshrs = append(l.mshrs, m)
	if l.MissBegin != nil {
		l.MissBegin(meta)
	}
	l.q.ScheduleHandler(now+l.cfg.Latency, m)
	l.maybePrefetch(now, la, meta)
	return true
}

func (l *Level) getMSHR() *mshr {
	if n := len(l.freeMSHRs); n > 0 {
		m := l.freeMSHRs[n-1]
		l.freeMSHRs[n-1] = nil
		l.freeMSHRs = l.freeMSHRs[:n-1]
		return m
	}
	return &mshr{l: l}
}

func (l *Level) releaseMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	m.dirty, m.issued = false, false
	l.freeMSHRs = append(l.freeMSHRs, m)
}

// retryGap is how long a component waits before re-attempting a transfer a
// lower level refused. A handful of cycles: short against DRAM latencies.
const retryGap = 8

// install places la in its set with flags (lineDirty, linePrefetched or
// neither) set, evicting the LRU way; dirty victims are written back down.
func (l *Level) install(now uint64, la uint64, flags uint64) {
	si, tag := l.index(la)
	set := l.set(si)
	victim := 0
	for i := range set {
		if set[i].w&lineValid == 0 {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	v := &set[victim]
	if v.w&(lineValid|lineDirty) == lineValid|lineDirty {
		l.writeback(now, l.victimAddr(si, v.w>>flagBits))
	}
	l.tick++
	*v = line{w: tag<<flagBits | lineValid | flags, used: l.tick}
	if l.Wake != nil {
		l.Wake()
	}
}

// writeback pushes a dirty victim down, buffering it if the lower level is
// saturated.
func (l *Level) writeback(now uint64, addr uint64) {
	l.Stats.Writebacks++
	meta := Meta{Thread: mem.InvalidThread}
	if l.lower.WriteLine(now, addr, meta) {
		return
	}
	l.pendingWB = append(l.pendingWB, wbEntry{addr: addr, meta: meta})
	if len(l.pendingWB) == 1 {
		l.scheduleWBRetry(now + retryGap)
	}
}

func (l *Level) scheduleWBRetry(at uint64) {
	l.q.ScheduleHandler(at, &l.wbretry)
}

func (l *Level) drainWB(now uint64) {
	n := 0
	for n < len(l.pendingWB) && l.lower.WriteLine(now, l.pendingWB[n].addr, l.pendingWB[n].meta) {
		n++
	}
	if n > 0 {
		m := copy(l.pendingWB, l.pendingWB[n:])
		l.pendingWB = l.pendingWB[:m]
	}
	if len(l.pendingWB) > 0 {
		l.scheduleWBRetry(now + retryGap)
	}
}

// complete schedules a hit completion.
func (l *Level) complete(at uint64, done event.Filler) {
	if done == nil {
		return
	}
	l.q.ScheduleFiller(at, done)
}

// RegisterMetrics exposes the level's counters and live MSHR occupancy
// through the metrics registry, under "cache.<name>." (the level's configured
// name, lowercased). Safe on a nil registry.
func (l *Level) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	prefix := "cache." + strings.ToLower(l.cfg.Name) + "."
	reg.Gauge(prefix+"accesses", func(uint64) float64 { return float64(l.Stats.Accesses) })
	reg.Gauge(prefix+"misses", func(uint64) float64 { return float64(l.Stats.Misses) })
	reg.Gauge(prefix+"merged", func(uint64) float64 { return float64(l.Stats.Merged) })
	reg.Gauge(prefix+"writebacks", func(uint64) float64 { return float64(l.Stats.Writebacks) })
	reg.Gauge(prefix+"mshr_full", func(uint64) float64 { return float64(l.Stats.MSHRFull) })
	reg.Gauge(prefix+"miss_rate", func(uint64) float64 { return l.Stats.MissRate() })
	reg.Sampled(prefix+"mshr_occupancy", func(uint64) float64 { return float64(len(l.mshrs)) })
}

// Contains reports whether addr is resident (for tests).
func (l *Level) Contains(addr uint64) bool {
	if l.cfg.Perfect {
		return true
	}
	return l.lookup(l.lineAddr(addr)) != nil
}
