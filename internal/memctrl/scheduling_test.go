package memctrl

import (
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/mem"
)

// These tests pin down the dispatch engine's command-level behaviour:
// bank-ready gating, strict FCFS head-of-line blocking, and the
// ThreadAwareFirst ablation ordering.

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	var d doneRec
	// Request 0 occupies bank 0. Request 1 (also bank 0, other row)
	// conflicts; request 2 targets free bank 1. Strict FCFS must NOT let
	// request 2 overtake request 1.
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0))
	c.Enqueue(0, d.req(1, addrFor(0, 9), mem.Read, 0))
	c.Enqueue(0, d.req(2, addrFor(1, 1), mem.Read, 0))
	q.RunUntil(1 << 20)
	want := []uint64{0, 1, 2}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want strict %v", d.order, want)
		}
	}
}

func TestHitFirstBypassesBlockedHead(t *testing.T) {
	// With first-ready scheduling (everything except FCFS), a request to a
	// free bank overtakes an older request whose bank is still busy.
	var q event.Queue
	m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
	c, err := New(&q, Config{
		Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
		Policy: HitFirst, MaxInFlight: 2, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var d doneRec
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // occupies bank 0
	c.Enqueue(1, d.req(1, addrFor(0, 9), mem.Read, 0)) // bank 0 busy: must wait
	c.Enqueue(1, d.req(2, addrFor(1, 1), mem.Read, 0)) // bank 1 free: overtakes
	q.RunUntil(1 << 20)
	if d.order[1] != 2 {
		t.Fatalf("completion order %v: free-bank request should overtake the conflict", d.order)
	}
}

func TestBankReadyGatingParallelism(t *testing.T) {
	// Four requests to four different banks with MaxInFlight 4: all should
	// dispatch immediately and complete one burst apart (bus-serialized,
	// bank-parallel).
	var q event.Queue
	m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
	c, err := New(&q, Config{
		Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
		Policy: HitFirst, MaxInFlight: 4, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var done []uint64
	for b := 0; b < 4; b++ {
		c.Enqueue(0, &mem.Request{ID: uint64(b), Addr: addrFor(b, 0), Kind: mem.Read, Thread: 0,
			OnComplete: func(at uint64) { done = append(done, at) }})
	}
	q.RunUntil(1 << 20)
	if len(done) != 4 {
		t.Fatalf("completed %d of 4", len(done))
	}
	for i := 1; i < len(done); i++ {
		if done[i]-done[i-1] != 30 { // one burst
			t.Fatalf("completions %v not pipelined one burst apart", done)
		}
	}
}

func TestRetryWakesWhenBankFrees(t *testing.T) {
	// With MaxInFlight high but a single bank, the second conflicting
	// request cannot start until the bank frees; the controller must arm a
	// wake-up rather than spin or stall forever.
	var q event.Queue
	m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
	c, err := New(&q, Config{
		Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
		Policy: HitFirst, MaxInFlight: 8, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var done []uint64
	for i := 0; i < 3; i++ {
		row := i * 7 // all different rows, same bank
		c.Enqueue(0, &mem.Request{ID: uint64(i), Addr: addrFor(0, row), Kind: mem.Read, Thread: 0,
			OnComplete: func(at uint64) { done = append(done, at) }})
	}
	q.RunUntil(1 << 20)
	if len(done) != 3 {
		t.Fatalf("completed %d of 3 conflicting requests", len(done))
	}
}

func TestThreadAwareFirstInvertsOrder(t *testing.T) {
	// A hit from a busy thread vs a miss from an idle thread: the paper's
	// order serves the hit first; the inverted (ablation) order serves the
	// idle thread's miss first.
	run := func(threadAwareFirst bool) []uint64 {
		var q event.Queue
		m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
		c, err := New(&q, Config{
			Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
			Policy: RequestBased, MaxInFlight: 1, Threads: 2,
			ThreadAwareFirst: threadAwareFirst,
		})
		if err != nil {
			t.Fatal(err)
		}
		var d doneRec
		c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // in flight; opens bank0/row0
		c.Enqueue(0, d.req(1, addrFor(0, 0), mem.Read, 0)) // hit, busy thread 0
		c.Enqueue(0, d.req(2, addrFor(0, 0), mem.Read, 0)) // hit, busy thread 0
		c.Enqueue(0, d.req(3, addrFor(1, 3), mem.Read, 1)) // miss, idle thread 1
		q.RunUntil(1 << 20)
		return d.order
	}
	paper := run(false)
	if paper[1] != 1 && paper[1] != 2 {
		t.Fatalf("paper order %v: hits must be served before the idle thread's miss", paper)
	}
	inverted := run(true)
	if inverted[1] != 3 {
		t.Fatalf("inverted order %v: thread-aware-first must serve the idle thread's miss next", inverted)
	}
}

func TestPerThreadLatencyStats(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 2)
	c.Enqueue(0, &mem.Request{ID: 0, Addr: addrFor(0, 0), Kind: mem.Read, Thread: 0})
	c.Enqueue(0, &mem.Request{ID: 1, Addr: addrFor(1, 0), Kind: mem.Read, Thread: 1})
	q.RunUntil(1 << 20)
	for tID := 0; tID < 2; tID++ {
		if c.Stats.ThreadReads[tID] != 1 {
			t.Fatalf("thread %d reads = %d, want 1", tID, c.Stats.ThreadReads[tID])
		}
		if c.Stats.ThreadReadLatencySum[tID] == 0 {
			t.Fatalf("thread %d latency sum is 0", tID)
		}
	}
}

func TestWritesCountInOutstanding(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	c.Enqueue(0, &mem.Request{ID: 0, Addr: addrFor(0, 0), Kind: mem.Write, Thread: mem.InvalidThread})
	c.Enqueue(0, &mem.Request{ID: 1, Addr: addrFor(1, 0), Kind: mem.Write, Thread: mem.InvalidThread})
	q.RunUntil(1 << 20)
	c.FinishStats(1 << 20)
	if c.Stats.BusyCycles() == 0 {
		t.Fatal("writebacks alone must register as DRAM-busy time")
	}
	if c.Stats.OutstandingHist[2] == 0 {
		t.Fatal("two outstanding writes never observed")
	}
}

func TestTraceHook(t *testing.T) {
	var q event.Queue
	m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
	var events []TraceEvent
	c, err := New(&q, Config{
		Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
		Policy: HitFirst, MaxInFlight: 1, Threads: 1,
		Trace: func(e TraceEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Enqueue(0, &mem.Request{ID: 0, Addr: addrFor(0, 0), Kind: mem.Read, Thread: 0})
	c.Enqueue(0, &mem.Request{ID: 1, Addr: addrFor(0, 0), Kind: mem.Read, Thread: 0})
	q.RunUntil(1 << 20)
	if len(events) != 2 {
		t.Fatalf("traced %d events, want 2", len(events))
	}
	e0, e1 := events[0], events[1]
	if e0.Outcome != dram.Closed || e1.Outcome != dram.Hit {
		t.Fatalf("outcomes = %v, %v; want closed then hit", e0.Outcome, e1.Outcome)
	}
	if !e0.Read || e0.Thread != 0 || e0.Done <= e0.Issue || e0.Issue < e0.Arrive {
		t.Fatalf("malformed event: %+v", e0)
	}
	if e1.QueuedBehind != 1 {
		t.Fatalf("second request saw queue %d, want 1", e1.QueuedBehind)
	}
}
