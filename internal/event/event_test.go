package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("Len of zero queue = %d, want 0", q.Len())
	}
	if _, ok := q.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported ok")
	}
	q.RunUntil(100) // must not panic
}

func TestFiresInCycleOrder(t *testing.T) {
	var q Queue
	var got []uint64
	for _, at := range []uint64{5, 1, 9, 3, 7} {
		at := at
		q.Schedule(at, func(now uint64) { got = append(got, now) })
	}
	q.RunUntil(10)
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinSameCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(42, func(uint64) { got = append(got, i) })
	}
	q.RunUntil(42)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order = %v, want FIFO", got)
		}
	}
}

func TestRunUntilBoundary(t *testing.T) {
	var q Queue
	fired := map[uint64]bool{}
	for _, at := range []uint64{10, 11, 12} {
		at := at
		q.Schedule(at, func(uint64) { fired[at] = true })
	}
	q.RunUntil(11)
	if !fired[10] || !fired[11] {
		t.Fatal("events at or before the boundary must fire")
	}
	if fired[12] {
		t.Fatal("event after the boundary must not fire")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1 pending event", q.Len())
	}
}

func TestCallbackSchedulesWithinWindow(t *testing.T) {
	var q Queue
	var got []uint64
	q.Schedule(1, func(now uint64) {
		got = append(got, now)
		q.Schedule(2, func(now uint64) { got = append(got, now) })
	})
	q.RunUntil(5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("chained events fired %v, want [1 2]", got)
	}
}

func TestNextAt(t *testing.T) {
	var q Queue
	q.Schedule(7, func(uint64) {})
	q.Schedule(3, func(uint64) {})
	at, ok := q.NextAt()
	if !ok || at != 3 {
		t.Fatalf("NextAt = %d,%v, want 3,true", at, ok)
	}
}

func TestFiredAndMaxLen(t *testing.T) {
	var q Queue
	for i := uint64(1); i <= 5; i++ {
		q.Schedule(i, func(uint64) {})
	}
	if q.MaxLen() != 5 {
		t.Fatalf("MaxLen = %d, want 5", q.MaxLen())
	}
	q.RunUntil(3)
	if q.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", q.Fired())
	}
	q.RunUntil(10)
	if q.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", q.Fired())
	}
	if q.MaxLen() != 5 {
		t.Fatalf("MaxLen after drain = %d, want 5 (high-water)", q.MaxLen())
	}
}

// Regression: scheduling at a cycle the queue has already fired past is the
// documented hazard; it must be counted, and the event must still fire.
func TestPastScheduleCounted(t *testing.T) {
	var q Queue
	q.Schedule(10, func(uint64) {})
	q.RunUntil(10)
	if q.PastSchedules() != 0 {
		t.Fatalf("PastSchedules = %d before any past schedule", q.PastSchedules())
	}
	fired := false
	q.Schedule(5, func(now uint64) { fired = true })
	if q.PastSchedules() != 1 {
		t.Fatalf("PastSchedules = %d, want 1", q.PastSchedules())
	}
	q.RunUntil(20)
	if !fired {
		t.Fatal("past-scheduled event must still fire")
	}
	// Scheduling at exactly the highest fired cycle is not "in the past".
	q.Schedule(10, func(uint64) {})
	if q.PastSchedules() != 1 {
		t.Fatalf("PastSchedules = %d after same-cycle schedule, want 1", q.PastSchedules())
	}
}

// Property: for any set of schedule times, events fire in nondecreasing time
// order and all of them fire.
func TestPropertyOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue
		var got []uint64
		for _, at := range times {
			q.Schedule(uint64(at), func(now uint64) { got = append(got, now) })
		}
		q.RunUntil(1 << 17)
		if len(got) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		want := make([]uint64, len(times))
		for i, at := range times {
			want[i] = uint64(at)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	nop := func(uint64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(uint64(rng.Intn(1000)), nop)
		if q.Len() > 1024 {
			q.RunUntil(1 << 30)
		}
	}
	q.RunUntil(1 << 30)
}

// recordingHandler is a reusable Handler for the tests below.
type recordingHandler struct {
	fired []uint64
}

func (h *recordingHandler) OnEvent(now uint64) { h.fired = append(h.fired, now) }

// TestScheduleHandlerInterleavesWithSchedule checks that handler events and
// closure events share one FIFO sequence: same-cycle events fire in
// registration order regardless of which entry point registered them.
func TestScheduleHandlerInterleavesWithSchedule(t *testing.T) {
	var q Queue
	var got []string
	h := &recordingHandler{}
	q.Schedule(5, func(uint64) { got = append(got, "fn1") })
	q.ScheduleHandler(5, h)
	q.Schedule(5, func(uint64) { got = append(got, "fn2") })
	q.RunUntil(5)
	if len(h.fired) != 1 || h.fired[0] != 5 {
		t.Fatalf("handler fired = %v, want [5]", h.fired)
	}
	if len(got) != 2 || got[0] != "fn1" || got[1] != "fn2" {
		t.Fatalf("closures fired = %v, want [fn1 fn2]", got)
	}
	if q.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", q.Fired())
	}
}

// TestScheduleHandlerDoesNotAllocate is the hot-path contract: once the heap
// has grown, scheduling and firing a reusable handler costs zero allocations
// per event. (Closure-based Schedule cannot make this guarantee — that is
// why ScheduleHandler exists.)
func TestScheduleHandlerDoesNotAllocate(t *testing.T) {
	var q Queue
	h := &recordingHandler{fired: make([]uint64, 0, 1024)}
	now := uint64(0)
	q.ScheduleHandler(1, h) // grow the heap once
	q.RunUntil(1)
	now = 1
	avg := testing.AllocsPerRun(200, func() {
		now++
		q.ScheduleHandler(now, h)
		q.RunUntil(now)
	})
	if avg != 0 {
		t.Fatalf("ScheduleHandler+RunUntil allocates %v/op, want 0", avg)
	}
}

// TestFarFutureOrdering exercises the heap tier: events far beyond the ring
// window must interleave correctly with near-future bucket events.
func TestFarFutureOrdering(t *testing.T) {
	var q Queue
	var got []uint64
	rec := func(now uint64) { got = append(got, now) }
	q.Schedule(5000, rec) // far tier
	q.Schedule(3, rec)    // ring tier
	q.Schedule(70000, rec)
	q.Schedule(900, rec)
	q.RunUntil(100000)
	want := []uint64{3, 900, 5000, 70000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestSameCycleAcrossTiers: an event scheduled for cycle c while c was far
// future and another scheduled for c once c is within the ring must fire in
// registration (seq) order.
func TestSameCycleAcrossTiers(t *testing.T) {
	var q Queue
	var got []int
	c := uint64(2000)                                    // outside the zero-based ring window at first
	q.Schedule(c, func(uint64) { got = append(got, 1) }) // far tier
	q.RunUntil(1500)                                     // advance the window over c
	q.Schedule(c, func(uint64) { got = append(got, 2) }) // ring tier
	q.RunUntil(c)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("cross-tier same-cycle order = %v, want [1 2]", got)
	}
}

// TestPastScheduleInterleavesFirst: a past-scheduled event must fire before
// pending current-cycle events with earlier registration, matching the
// global (cycle, seq) order of a plain min-heap.
func TestPastScheduleInterleavesFirst(t *testing.T) {
	var q Queue
	var got []string
	q.Schedule(10, func(uint64) {
		got = append(got, "a")
		q.Schedule(2, func(uint64) { got = append(got, "late") }) // in the past
	})
	q.Schedule(10, func(uint64) { got = append(got, "b") })
	q.RunUntil(10)
	if len(got) != 3 || got[0] != "a" || got[1] != "late" || got[2] != "b" {
		t.Fatalf("fired %v, want [a late b]", got)
	}
	if q.PastSchedules() != 1 {
		t.Fatalf("PastSchedules = %d, want 1", q.PastSchedules())
	}
}

// TestRingWrapAround pushes the drain cursor far past one ring lap to check
// bucket-slot reuse keeps cycles distinct.
func TestRingWrapAround(t *testing.T) {
	var q Queue
	var got []uint64
	now := uint64(0)
	for lap := 0; lap < 5; lap++ {
		for _, off := range []uint64{1, ringWindow / 2, ringWindow - 1} {
			at := now + off
			q.Schedule(at, func(at uint64) { got = append(got, at) })
		}
		now += ringWindow - 1
		q.RunUntil(now)
	}
	if len(got) != 15 {
		t.Fatalf("fired %d events, want 15", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

// TestReset returns a used queue to its initial state but keeps it usable.
func TestReset(t *testing.T) {
	var q Queue
	q.Schedule(5, func(uint64) {})
	q.Schedule(9000, func(uint64) {}) // one event in each tier
	q.RunUntil(5)
	q.Schedule(2, func(uint64) {}) // a past-schedule hazard
	q.Reset()
	if q.Len() != 0 || q.Fired() != 0 || q.PastSchedules() != 0 || q.MaxLen() != 0 {
		t.Fatalf("Reset left state: len=%d fired=%d past=%d maxLen=%d",
			q.Len(), q.Fired(), q.PastSchedules(), q.MaxLen())
	}
	if _, ok := q.NextAt(); ok {
		t.Fatal("NextAt reported an event after Reset")
	}
	fired := false
	q.Schedule(1, func(uint64) { fired = true })
	q.RunUntil(1)
	if !fired || q.Fired() != 1 {
		t.Fatal("queue unusable after Reset")
	}
}

// TestResetDoesNotAllocate: a Reset queue retains its storage, so the next
// run's scheduling stays allocation-free.
func TestResetDoesNotAllocate(t *testing.T) {
	var q Queue
	h := &recordingHandler{fired: make([]uint64, 0, 16)}
	q.ScheduleHandler(1, h)
	q.RunUntil(1)
	avg := testing.AllocsPerRun(100, func() {
		q.Reset()
		h.fired = h.fired[:0]
		q.ScheduleHandler(3, h)
		q.RunUntil(3)
	})
	if avg != 0 {
		t.Fatalf("Reset+Schedule+RunUntil allocates %v/op, want 0", avg)
	}
}

// refQueue is what the tiered queue must be indistinguishable from: one list
// of pending events, the next to fire being the one with the least (cycle,
// registration number).
type refQueue struct {
	items []item
	seq   uint64
}

func (r *refQueue) Schedule(at uint64, fn Func) {
	r.items = append(r.items, item{at: at, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refQueue) RunUntil(now uint64) {
	for {
		min := -1
		for i, it := range r.items {
			if it.at <= now && (min < 0 || it.at < r.items[min].at || it.at == r.items[min].at && it.seq < r.items[min].seq) {
				min = i
			}
		}
		if min < 0 {
			return
		}
		it := r.items[min]
		r.items = append(r.items[:min], r.items[min+1:]...)
		it.fn(it.at)
	}
}

// The same seeded schedule — events that schedule events: next cycle, same
// cycle, the past, a few cycles either side of the ring window's far edge,
// several windows out — through the queue at the package's ringWindow and
// through refQueue, the clock advanced in steps from one cycle to three
// windows. Every event must fire in the same order at the same cycle, so a
// change of ringWindow is checked here rather than argued.
func TestFiringOrderIsOneStableHeap(t *testing.T) {
	type fired struct{ id, at uint64 }
	mix := func(x uint64) uint64 { // splitmix64: the schedule is a function of the seed and the event's number
		x += 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	drive := func(seed uint64, schedule func(uint64, Func), runUntil func(uint64)) []fired {
		var log []fired
		next := uint64(0)
		var spawn func(now uint64)
		spawn = func(now uint64) {
			if next >= 4000 {
				return
			}
			id := next
			next++
			h := mix(seed<<32 | id)
			at := now
			switch h % 8 {
			case 0, 1, 2:
				at += 1 + h>>8%40
			case 3: // same cycle
			case 4:
				at -= min(now, h>>8%20)
			case 5:
				at += ringWindow - 2 + h>>8%5
			case 6:
				at += h >> 8 % (4 * ringWindow)
			case 7:
				at += ringWindow/2 + h>>8%ringWindow
			}
			schedule(at, func(at uint64) {
				log = append(log, fired{id, at})
				for n := h >> 40 % 3; n > 0; n-- {
					spawn(at)
				}
			})
		}
		for now, step := uint64(0), 0; step < 400; step++ {
			for n := mix(seed+uint64(step)) % 4; n > 0; n-- {
				spawn(now)
			}
			now += []uint64{1, 7, ringWindow / 2, ringWindow, 3 * ringWindow}[mix(seed^uint64(step))%5]
			runUntil(now)
		}
		runUntil(1 << 40)
		return log
	}
	for seed := uint64(1); seed <= 10; seed++ {
		var q Queue
		var ref refQueue
		quiet := false
		got := drive(seed, q.Schedule, func(now uint64) {
			if quiet = !quiet; quiet { // every other step through the span drain
				q.DrainQuiet(now+1, func(uint64) bool { return false })
			}
			q.RunUntil(now)
		})
		want := drive(seed, ref.Schedule, ref.RunUntil)
		if len(got) < 2000 || q.Len() != 0 {
			t.Fatalf("seed %d: fired %d events with %d left pending; the schedule is too thin to prove anything", seed, len(got), q.Len())
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: firing %d differs: got %v, one stable heap gives %+v", seed, i, got[max(0, i-2):min(len(got), i+3)], want[max(0, i-2):i+1])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, the reference %d", seed, len(got), len(want))
		}
	}
}
