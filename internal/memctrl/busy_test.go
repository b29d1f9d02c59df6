package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/faults"
	"smtdram/internal/mem"
)

// The event queue is the memory side's only calendar (DESIGN §11): Busy is
// exactly "a request is outstanding" — queued, in flight, or parked in retry
// backoff — and a busy controller always has an event pending. The ledger is
// the test's own: accepted enqueues minus OnComplete calls. Drop plans must
// visit the window where a read waits out its backoff with its channel's queue
// and in-flight window both empty, which only totalOut sees.
func TestBusyControllerAlwaysHasAnEvent(t *testing.T) {
	for _, pol := range AllPolicies() {
		for _, window := range []int{1, 4} {
			for _, plan := range []*faults.Plan{nil, {DropRate: 0.5, Seed: 3}} {
				t.Run(fmt.Sprintf("%v/window%d/%s", pol, window, plan), func(t *testing.T) {
					checkBusyLedger(t, pol, window, plan)
				})
			}
		}
	}
}

// checkBusyLedger steps seeded bursts of reads and writebacks over two
// channels one cycle at a time, then lets them drain.
func checkBusyLedger(t *testing.T, pol Policy, window int, plan *faults.Plan) {
	m, err := addrmap.NewMapper(geo2ch(), addrmap.Page)
	if err != nil {
		t.Fatal(err)
	}
	var q event.Queue
	c, err := New(&q, Config{
		Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage), Policy: pol,
		MaxInFlight: window, Threads: 2, Injector: faults.NewInjector(plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(pol)*10 + int64(window)))
	id, outstanding, parkedOnly := uint64(0), 0, 0
	burst := func(now uint64) {
		for n := 1 + rng.Intn(16); n > 0; n-- {
			id++
			r := &mem.Request{ID: id, Addr: uint64(rng.Intn(256)) * 2048, Kind: mem.Read,
				Thread: rng.Intn(2), OnComplete: func(uint64) { outstanding-- }}
			if rng.Intn(4) == 0 {
				r.Kind, r.Thread = mem.Write, -1
			}
			if c.Enqueue(now, r) {
				outstanding++
			}
		}
	}
	const traffic, budget = 200_000, 1 << 21
	for now := uint64(1); now <= traffic || outstanding > 0; now++ {
		if now > budget {
			t.Fatalf("%d requests still outstanding at cycle %d", outstanding, now)
		}
		q.RunUntil(now)
		if now <= traffic && rng.Intn(2000) == 0 { // sparse bursts: queues build, then drain to idle
			burst(now)
		}
		if c.Busy() != (outstanding > 0) {
			t.Fatalf("cycle %d: Busy() = %v with %d requests outstanding", now, c.Busy(), outstanding)
		}
		if c.Busy() && q.Len() == 0 {
			t.Fatalf("cycle %d: busy controller facing an empty event queue", now)
		}
		held := 0
		for _, cc := range c.channels {
			held += len(cc.queue) + cc.inFlight
		}
		if held == 0 && outstanding > 0 {
			parkedOnly++
		}
	}
	if c.Busy() || q.Len() != 0 {
		t.Fatalf("traffic drained but Busy() = %v with %d events pending", c.Busy(), q.Len())
	}
	if plan != nil && parkedOnly == 0 {
		t.Fatal("no cycle had a read parked in backoff with both channels otherwise empty: the test is vacuous")
	}
}
