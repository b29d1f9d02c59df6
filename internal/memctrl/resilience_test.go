package memctrl

import (
	"fmt"
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/faults"
	"smtdram/internal/mem"
	"smtdram/internal/obs"
)

func newFaultyCtl(t *testing.T, q *event.Queue, plan *faults.Plan, ob *obs.Observer) *Controller {
	t.Helper()
	m, err := addrmap.NewMapper(geo1ch(), addrmap.Page)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(q, Config{
		Mapper:   m,
		Params:   dram.DDRParams(16, 64, dram.OpenPage),
		Policy:   FCFS,
		Threads:  1,
		Injector: faults.NewInjector(plan),
		Obs:      ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
	base := Config{Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage)}

	bad := base
	bad.QueueDepth = -1
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("negative queue depth accepted")
	}
	bad = base
	bad.Threads = -1
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("negative thread count accepted")
	}
	bad = base
	bad.Mapper = addrmap.Mapper{} // zero channels
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("zero-channel mapper accepted")
	}
	// A fault plan whose drop rate is not a probability.
	bad = base
	bad.Injector = faults.NewInjector(&faults.Plan{DropRate: 2})
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("drop rate 2 accepted")
	}
	var q event.Queue
	if _, err := New(&q, bad); err == nil {
		t.Error("New accepted a config its own Validate rejects")
	}
	if err := base.withDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDroppedReadRetriesThenGivesUp(t *testing.T) {
	var q event.Queue
	c := newFaultyCtl(t, &q, &faults.Plan{DropRate: 1, Seed: 3}, nil)
	var doneAt uint64
	r := &mem.Request{ID: 1, Addr: 0, Kind: mem.Read, Thread: 0,
		OnComplete: func(at uint64) { doneAt = at }}
	if !c.Enqueue(0, r) {
		t.Fatal("Enqueue rejected")
	}
	q.RunUntil(1 << 20)
	if doneAt == 0 {
		t.Fatal("read never completed: give-up path must still deliver")
	}
	// Every service attempt is dropped: maxRetries (3) retries, then give up
	// on the 4th attempt. A clean read completes at 120 (closed-bank), so
	// the retried one must land far later.
	if c.Stats.Retries != 3 || c.Stats.RetryGiveUps != 1 {
		t.Fatalf("Retries=%d GiveUps=%d, want 3 and 1", c.Stats.Retries, c.Stats.RetryGiveUps)
	}
	if c.inj.Drops != 4 {
		t.Fatalf("injected drops = %d, want 4 (one per service attempt)", c.inj.Drops)
	}
	if doneAt <= 120 {
		t.Fatalf("retried read completed at %d, no later than a clean read", doneAt)
	}
	// The retry delay is exponential: 16, 32, 64 on top of three re-services.
	if c.Stats.ReadLatencySum != doneAt {
		t.Fatalf("latency accounts %d, want full arrival→delivery %d", c.Stats.ReadLatencySum, doneAt)
	}
}

func TestRetryMilestonesInTrace(t *testing.T) {
	var q event.Queue
	ob := &obs.Observer{Trace: obs.NewTracer()}
	c := newFaultyCtl(t, &q, &faults.Plan{DropRate: 1, Seed: 5}, ob)
	r := &mem.Request{ID: 1, Addr: 0, Kind: mem.Read, Thread: 0}
	c.Enqueue(0, r)
	q.RunUntil(1 << 20)
	var retries, gaveUp, dones int
	for _, e := range ob.Trace.Events() {
		switch e.Kind {
		case obs.KRetry:
			if e.Outcome == "gave up" {
				gaveUp++
			} else {
				retries++
			}
		case obs.KDone:
			dones++
		}
	}
	// A drop is recorded once, by its retry milestone.
	if retries != 3 || gaveUp != 1 || dones != 1 || c.inj.Drops != uint64(retries+gaveUp) {
		t.Fatalf("milestones: %d retries, %d give-ups, %d dones for %d drops; want 3/1/1 for 4",
			retries, gaveUp, dones, c.inj.Drops)
	}
}

// TestRetryBudgetIsPerRequest: entries are recycled through the free list, and
// the retry budget must not ride along with the slot. In a traced drop-plan
// run where every request reuses the one entry its predecessors used, each
// request's retry milestones count up from "attempt 1", and a "gave up"
// follows exactly maxRetries attempts of that same request.
func TestRetryBudgetIsPerRequest(t *testing.T) {
	var q event.Queue
	ob := &obs.Observer{Trace: obs.NewTracer()}
	c := newFaultyCtl(t, &q, &faults.Plan{DropRate: 0.6, Seed: 3}, ob)
	const n = 200
	for i := 0; i < n; i++ {
		at := uint64(i) << 12 // long after the previous request's last retry
		q.RunUntil(at)
		if !c.Enqueue(at, &mem.Request{ID: uint64(i + 1), Addr: uint64(i) * 64, Kind: mem.Read, Thread: 0}) {
			t.Fatal("Enqueue rejected")
		}
	}
	q.RunUntil(n << 12)
	if len(c.freeEntries) != 1 {
		t.Fatalf("%d pooled entries; the test wants every request on one recycled slot", len(c.freeEntries))
	}
	attempts := map[uint64]int{}
	var gaveUp int
	for _, e := range ob.Trace.Events() {
		if e.Kind != obs.KRetry {
			continue
		}
		if e.Outcome == "gave up" {
			gaveUp++
			if attempts[e.ReqID] != maxRetries {
				t.Fatalf("req %d gave up after %d retries of its own, want %d", e.ReqID, attempts[e.ReqID], maxRetries)
			}
			continue
		}
		attempts[e.ReqID]++
		if want := fmt.Sprintf("attempt %d", attempts[e.ReqID]); e.Outcome != want {
			t.Fatalf("req %d: retry milestone %q, want %q", e.ReqID, e.Outcome, want)
		}
	}
	if len(attempts) < 50 || gaveUp == 0 {
		t.Fatalf("only %d requests retried and %d gave up; the plan is too mild to test anything", len(attempts), gaveUp)
	}
	if c.Stats.RetryGiveUps != uint64(gaveUp) {
		t.Fatalf("Stats.RetryGiveUps = %d, trace shows %d", c.Stats.RetryGiveUps, gaveUp)
	}
}

func TestFaultFreeRunsUntouchedByResilienceMachinery(t *testing.T) {
	run := func(inj *faults.Injector) (Stats, uint64) {
		var q event.Queue
		m, _ := addrmap.NewMapper(geo1ch(), addrmap.Page)
		c, err := New(&q, Config{
			Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage),
			Policy: HitFirst, Threads: 2, Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		var lastDone uint64
		for i := 0; i < 64; i++ {
			r := &mem.Request{ID: uint64(i + 1), Addr: uint64(i*7) * 64, Kind: mem.Read, Thread: i % 2,
				OnComplete: func(at uint64) { lastDone = at }}
			c.Enqueue(uint64(i)*3, r)
		}
		q.RunUntil(1 << 20)
		return c.Stats, lastDone
	}
	sWith, dWith := run(faults.NewInjector(nil)) // nil plan → nil injector
	sWithout, dWithout := run(nil)
	if sWith != sWithout || dWith != dWithout {
		t.Fatal("a nil fault plan changed controller behaviour")
	}
}
