// Package event provides the discrete-event scheduling core shared by the
// memory subsystem simulators. The queue is tiered: events in the near
// future — the common case, since DRAM timings are short fixed offsets —
// land in a ring of per-cycle FIFO buckets, and everything else (far-future
// timers, schedule-in-the-past hazards) falls back to a binary min-heap.
// The two tiers are merged at drain time by global (cycle, seq) order, so
// firing order is exactly that of a single stable min-heap: cycle-ordered,
// FIFO among events scheduled for the same cycle.
package event

import "math/bits"

// Func is a callback fired when the simulation clock reaches its cycle.
type Func func(now uint64)

// Handler is the allocation-free alternative to Func: components that fire
// the same kind of event over and over implement Handler on a long-lived
// (or pooled) struct and pass it to ScheduleHandler, instead of allocating
// a fresh closure per Schedule call on the simulation hot path.
type Handler interface {
	OnEvent(now uint64)
}

// Filler is the completion-callback counterpart of Handler: a pending
// continuation ("this miss's data arrives now") rather than a recurring
// event. Keeping it a distinct interface lets one object carry both roles —
// an MSHR's OnEvent retries issue while its OnFill delivers data — and,
// because fillers are named objects instead of closures, lets the snapshot
// codec describe scheduled completions by reference.
type Filler interface {
	OnFill(now uint64)
}

// FillFunc adapts a plain function to Filler, for tests and call sites that
// are not on the snapshot path.
type FillFunc func(now uint64)

// OnFill implements Filler.
func (f FillFunc) OnFill(now uint64) { f(now) }

type item struct {
	at  uint64
	seq uint64 // tie-breaker: FIFO among equal cycles
	fn  Func
	h   Handler
	f   Filler
}

const (
	// ringWindow is the span of cycles the bucket ring covers, starting at
	// the drain cursor. Must be a power of two. It is sized to the horizon the
	// model schedules over, measured as the share of pushes that miss the ring
	// and take the far heap: at 256, 0 of 1.27 M on 8-ILP, 0 of 0.54 M on 8-MEM
	// and 1.6% on 8-MEM over close-page RDRAM; at 128, 2-5% on all three; at
	// 1024 the ring was 250 KB a machine. Firing order is the same at any
	// window (TestFiringOrderIsOneStableHeap): the window only decides which
	// tier pays.
	ringWindow = 256
	ringMask   = ringWindow - 1
	occWords   = ringWindow / 64
	// bucketCap is the per-bucket capacity carved from the shared backing
	// array on first use; buckets that burst past it grow individually and
	// keep their larger capacity.
	bucketCap = 4
)

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use. Queue is not safe for concurrent use; the simulator is single-threaded
// by design (one simulated machine = one goroutine).
type Queue struct {
	// ring holds events for cycles in [base, base+ringWindow), one FIFO
	// bucket per cycle, indexed by cycle & ringMask. occ is its occupancy
	// bitmap (one bit per bucket) for fast next-nonempty scans.
	ring  [ringWindow][]item
	occ   [occWords]uint64
	ringN int
	base  uint64 // lowest cycle not yet fully drained

	// far is a (at, seq) min-heap holding everything the ring cannot:
	// events beyond the window and events scheduled in the past.
	far []item

	seq uint64

	// Drain/hazard counters, maintained unconditionally (a handful of
	// integer ops per event) and exposed to the observability layer.
	fired   uint64 // events executed
	firedAt uint64 // highest cycle any fired event carried
	past    uint64 // schedules at a cycle the queue had already fired past
	maxLen  int    // high-water pending-event count
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.ringN + len(q.far) }

// Fired reports the cumulative number of events executed.
func (q *Queue) Fired() uint64 { return q.fired }

// PastSchedules reports how often Schedule was called with a cycle earlier
// than one the queue had already fired an event at — the documented
// schedule-in-the-past hazard. Such events still fire (late), but a nonzero
// count means some component's timing arithmetic went backwards.
func (q *Queue) PastSchedules() uint64 { return q.past }

// MaxLen reports the high-water pending-event count.
func (q *Queue) MaxLen() int { return q.maxLen }

// Schedule registers fn to run at cycle at. Scheduling in the past is the
// caller's bug; the event still fires, at whatever "now" the queue has
// advanced to, preserving run-to-completion semantics. Occurrences are
// counted (see PastSchedules).
func (q *Queue) Schedule(at uint64, fn Func) {
	q.push(item{at: at, fn: fn})
}

// ScheduleHandler registers h to run at cycle at. It shares the clock, the
// FIFO tie-break sequence, and the hazard accounting with Schedule — an event
// scheduled through either entry point fires in exactly the same order — but
// takes an interface value instead of a closure, so callers can reuse one
// handler object across millions of events without allocating.
func (q *Queue) ScheduleHandler(at uint64, h Handler) {
	q.push(item{at: at, h: h})
}

// ScheduleFiller registers f's OnFill to run at cycle at. Identical ordering
// and hazard semantics to Schedule/ScheduleHandler; the separate entry point
// exists so pending completions are typed objects the snapshot codec can
// name.
func (q *Queue) ScheduleFiller(at uint64, f Filler) {
	q.push(item{at: at, f: f})
}

// push is the single insertion path behind Schedule and ScheduleHandler.
func (q *Queue) push(it item) {
	if it.at < q.firedAt {
		q.past++
	}
	it.seq = q.seq
	q.seq++
	if it.at >= q.base && it.at < q.base+ringWindow {
		s := int(it.at & ringMask)
		if q.ring[s] == nil {
			q.initRing()
		}
		q.ring[s] = append(q.ring[s], it)
		q.occ[s>>6] |= 1 << uint(s&63)
		q.ringN++
	} else {
		q.far = append(q.far, it)
		q.up(len(q.far) - 1)
	}
	if n := q.ringN + len(q.far); n > q.maxLen {
		q.maxLen = n
	}
}

// initRing carves every bucket's initial capacity out of one shared backing
// array, so warming the ring costs a single allocation instead of one per
// bucket.
func (q *Queue) initRing() {
	backing := make([]item, ringWindow*bucketCap)
	for i := range q.ring {
		if q.ring[i] == nil {
			q.ring[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
	}
}

// ringNextAt returns the earliest cycle with a pending ring event.
func (q *Queue) ringNextAt() (uint64, bool) {
	if q.ringN == 0 {
		return 0, false
	}
	s := int(q.base & ringMask)
	w0 := s >> 6
	w := w0
	word := q.occ[w0] &^ (1<<uint(s&63) - 1)
	for {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			return q.base + uint64((slot-s+ringWindow)&ringMask), true
		}
		w = (w + 1) & (occWords - 1)
		word = q.occ[w]
		if w == w0 {
			// Wrapped: only the low bits of the starting word remain
			// (slots before the cursor hold next-lap cycles).
			word &= 1<<uint(s&63) - 1
			if word != 0 {
				slot := w<<6 + bits.TrailingZeros64(word)
				return q.base + uint64((slot-s+ringWindow)&ringMask), true
			}
			return 0, false
		}
	}
}

// NextAt returns the cycle of the earliest pending event. ok is false when
// the queue is empty.
func (q *Queue) NextAt() (at uint64, ok bool) {
	ra, rok := q.ringNextAt()
	if len(q.far) > 0 && (!rok || q.far[0].at < ra) {
		return q.far[0].at, true
	}
	return ra, rok
}

// RunUntil fires, in order, every event with cycle <= now. Events scheduled
// by callbacks for cycles <= now are fired in the same call.
func (q *Queue) RunUntil(now uint64) {
	for {
		ra, rok := q.ringNextAt()
		var c uint64
		switch {
		case len(q.far) > 0 && (!rok || q.far[0].at < ra):
			c = q.far[0].at
		case rok:
			c = ra
		default:
			goto drained
		}
		if c > now {
			break
		}
		if c < q.base {
			// A schedule-in-the-past event: it lives only in the far heap
			// (the ring never holds cycles below the cursor). Fire it and
			// re-pick the global minimum — its callback may schedule more.
			q.fire(q.popFar())
			continue
		}
		// All cycles below c are drained, so the cursor may advance to c,
		// which puts c's bucket in the window: same-cycle schedules made by
		// the callbacks below land in the bucket being drained and fire in
		// this same pass, in seq order.
		q.base = c
		q.drainCycle(c)
	}
drained:
	if q.base <= now {
		q.base = now + 1
	}
}

// DrainQuiet fires pending events in whole-cycle batches, strictly below
// bound, invoking stop(c) after each cycle c's batch has fully drained
// (including any same- or past-cycle events the callbacks scheduled). It
// returns (c, true) as soon as stop reports the batch did something the
// caller must land on, leaving the queue exactly as RunUntil(c) would have —
// every event at or below c fired, cursor at c+1 — or (0, false) once no
// pending event remains below bound.
//
// This is the two-speed clock's span drain: a quiet span sails through
// memory-internal event cycles without surfacing to the run loop, paying one
// next-event scan per batch instead of the scan-plus-RunUntil pair the loop
// would issue, and stopping at the first batch that delivers CPU-visible
// state.
func (q *Queue) DrainQuiet(bound uint64, stop func(at uint64) bool) (at uint64, stopped bool) {
	for {
		ra, rok := q.ringNextAt()
		var c uint64
		switch {
		case len(q.far) > 0 && (!rok || q.far[0].at < ra):
			c = q.far[0].at
		case rok:
			c = ra
		default:
			return 0, false
		}
		if c >= bound {
			return 0, false
		}
		if c < q.base {
			// Schedule-in-the-past hazard (far heap only): fire it at the
			// cursor and re-pick, exactly as RunUntil would.
			q.fire(q.popFar())
			continue
		}
		q.base = c
		q.drainCycle(c)
		q.base = c + 1
		if stop(c) {
			return c, true
		}
	}
}

// drainCycle fires every event at cycle c (== q.base), merging the ring
// bucket's FIFO with far-heap entries by seq so global (at, seq) order is
// preserved. Callbacks may append to either tier mid-drain.
func (q *Queue) drainCycle(c uint64) {
	s := int(c & ringMask)
	bi := 0
	for {
		hasB := bi < len(q.ring[s])
		hasF := len(q.far) > 0 && q.far[0].at <= c
		var it item
		switch {
		case hasF && (!hasB || q.far[0].at < c || q.far[0].seq < q.ring[s][bi].seq):
			// A past-scheduled event (at < c) always precedes the rest of
			// this cycle; an at == c far entry interleaves by seq.
			it = q.popFar()
		case hasB:
			it = q.ring[s][bi]
			q.ring[s][bi] = item{}
			bi++
			q.ringN--
		default:
			q.ring[s] = q.ring[s][:0]
			q.occ[s>>6] &^= 1 << uint(s&63)
			return
		}
		q.fire(it)
	}
}

func (q *Queue) fire(it item) {
	q.fired++
	if it.at > q.firedAt {
		q.firedAt = it.at
	}
	switch {
	case it.h != nil:
		it.h.OnEvent(it.at)
	case it.f != nil:
		it.f.OnFill(it.at)
	default:
		it.fn(it.at)
	}
}

// Reset discards all pending events and zeroes every counter, returning the
// queue to its initial state while retaining the grown internal storage, so
// a queue reused across runs schedules without reallocating.
func (q *Queue) Reset() {
	for s := range q.ring {
		b := q.ring[s]
		for i := range b {
			b[i] = item{}
		}
		if b != nil {
			q.ring[s] = b[:0]
		}
	}
	for i := range q.far {
		q.far[i] = item{}
	}
	q.far = q.far[:0]
	q.occ = [occWords]uint64{}
	q.ringN = 0
	q.base = 0
	q.seq = 0
	q.fired = 0
	q.firedAt = 0
	q.past = 0
	q.maxLen = 0
}

func (q *Queue) popFar() item {
	top := q.far[0]
	last := len(q.far) - 1
	q.far[0] = q.far[last]
	q.far[last] = item{}
	q.far = q.far[:last]
	if last > 0 {
		q.down(0)
	}
	return top
}

func (q *Queue) less(i, j int) bool {
	if q.far[i].at != q.far[j].at {
		return q.far[i].at < q.far[j].at
	}
	return q.far[i].seq < q.far[j].seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.far)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.far[i], q.far[smallest] = q.far[smallest], q.far[i]
		i = smallest
	}
}
