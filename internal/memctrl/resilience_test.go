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

func geo2ch() addrmap.Geometry {
	return addrmap.Geometry{Channels: 2, ChipsPerChannel: 1, BanksPerChip: 4, PageBytes: 2048, LineBytes: 64}
}

func newFaultyCtl(t *testing.T, q *event.Queue, geo addrmap.Geometry, plan *faults.Plan, ob *obs.Observer) *Controller {
	t.Helper()
	m, err := addrmap.NewMapper(geo, addrmap.Page)
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
	bad.MaxRetries = -1
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("negative retry bound accepted")
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
	// A fault plan that does not fit the geometry (channel 1 of 1).
	bad = base
	bad.Injector = faults.NewInjector(&faults.Plan{ChannelFail: &faults.ChannelFail{Channel: 1, At: 10}})
	if err := bad.withDefaults().Validate(); err == nil {
		t.Error("fault plan outside the geometry accepted")
	}
	var q event.Queue
	if _, err := New(&q, bad); err == nil {
		t.Error("New accepted a config its own Validate rejects")
	}
	if err := base.withDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCorrectedBitFlipsDoNotRetry(t *testing.T) {
	var q event.Queue
	c := newFaultyCtl(t, &q, geo1ch(), &faults.Plan{BitFlipRate: 1, Seed: 3}, nil)
	var done int
	for i := 0; i < 8; i++ {
		r := &mem.Request{ID: uint64(i + 1), Addr: addrFor(i%4, i/4), Kind: mem.Read, Thread: 0,
			OnComplete: func(uint64) { done++ }}
		if !c.Enqueue(0, r) {
			t.Fatal("Enqueue rejected")
		}
	}
	q.RunUntil(1 << 20)
	if done != 8 {
		t.Fatalf("%d of 8 reads completed", done)
	}
	ecc := c.ECCStats()
	if ecc.Corrected != 8 || ecc.Uncorrected != 0 {
		t.Fatalf("ECC = %+v, want 8 corrected", ecc)
	}
	if c.Stats.Retries != 0 || c.Stats.RetryGiveUps != 0 {
		t.Fatalf("corrected errors triggered retries: %+v", c.Stats)
	}
	if inj := c.inj.Stats; inj.BitFlips != 8 || inj.Total() != 8 {
		t.Fatalf("injector stats = %+v", inj)
	}
}

func TestDroppedReadRetriesThenGivesUp(t *testing.T) {
	var q event.Queue
	c := newFaultyCtl(t, &q, geo1ch(), &faults.Plan{DropRate: 1, Seed: 3}, nil)
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
	// Every service attempt is dropped: MaxRetries (3) retries, then give up
	// on the 4th attempt. A clean read completes at 120 (closed-bank), so
	// the retried one must land far later.
	if c.Stats.Retries != 3 || c.Stats.RetryGiveUps != 1 {
		t.Fatalf("Retries=%d GiveUps=%d, want 3 and 1", c.Stats.Retries, c.Stats.RetryGiveUps)
	}
	if c.inj.Stats.Drops != 4 {
		t.Fatalf("injected drops = %d, want 4 (one per service attempt)", c.inj.Stats.Drops)
	}
	if doneAt <= 120 {
		t.Fatalf("retried read completed at %d, no later than a clean read", doneAt)
	}
	// The retry delay is exponential: 16, 32, 64 on top of three re-services.
	if c.Stats.ReadLatencySum != doneAt {
		t.Fatalf("latency accounts %d, want full arrival→delivery %d", c.Stats.ReadLatencySum, doneAt)
	}
}

func TestStuckRowIsUncorrectableAndAccountingSums(t *testing.T) {
	var q event.Queue
	plan := &faults.Plan{Stuck: []faults.StuckRow{{Channel: 0, Chip: 0, Bank: 1, Row: 2}}}
	c := newFaultyCtl(t, &q, geo1ch(), plan, nil)
	var done int
	for i, addr := range []uint64{addrFor(1, 2), addrFor(2, 2), addrFor(1, 3)} {
		r := &mem.Request{ID: uint64(i + 1), Addr: addr, Kind: mem.Read, Thread: 0,
			OnComplete: func(uint64) { done++ }}
		if !c.Enqueue(0, r) {
			t.Fatal("Enqueue rejected")
		}
	}
	q.RunUntil(1 << 20)
	if done != 3 {
		t.Fatalf("%d of 3 reads completed", done)
	}
	ecc := c.ECCStats()
	// The stuck-row read faults on every attempt: 1 + MaxRetries decodes.
	if ecc.Uncorrected != 4 || ecc.Corrected != 0 {
		t.Fatalf("ECC = %+v, want 4 uncorrected", ecc)
	}
	if c.Stats.Retries != 3 || c.Stats.RetryGiveUps != 1 {
		t.Fatalf("Retries=%d GiveUps=%d", c.Stats.Retries, c.Stats.RetryGiveUps)
	}
	// Exact accounting: injected == corrected + uncorrected + dropped.
	inj := c.inj.Stats
	if inj.Total() != ecc.Corrected+ecc.Uncorrected+inj.Drops {
		t.Fatalf("accounting: injected %d != corrected %d + uncorrected %d + dropped %d",
			inj.Total(), ecc.Corrected, ecc.Uncorrected, inj.Drops)
	}
}

func TestChannelFailoverMigratesAndCompletes(t *testing.T) {
	var q event.Queue
	ob := obs.New(obs.Options{Trace: true})
	// Channel 1 dies at cycle 60 — while a pile of requests to it is queued.
	plan := &faults.Plan{ChannelFail: &faults.ChannelFail{Channel: 1, At: 60}}
	c := newFaultyCtl(t, &q, geo2ch(), plan, ob)

	// Page mapping over 2 channels: page index alternates channels
	// (channel-major BankID), so odd page indices land on channel 1.
	var done int
	const n = 24
	for i := 0; i < n; i++ {
		r := &mem.Request{ID: uint64(i + 1), Addr: uint64(i) * 2048, Kind: mem.Read, Thread: 0,
			OnComplete: func(uint64) { done++ }}
		if !c.Enqueue(0, r) {
			t.Fatal("Enqueue rejected")
		}
	}
	q.RunUntil(1 << 20)
	if done != n {
		t.Fatalf("%d of %d reads completed after failover", done, n)
	}
	if ch, at := c.Failover(); ch != 1 || at != 60 {
		t.Fatalf("Failover() = (%d, %d), want (1, 60)", ch, at)
	}
	if c.Stats.FailedOver == 0 {
		t.Fatal("no requests migrated off the failed channel")
	}
	// The dead channel must never dispatch again and new traffic must avoid
	// it: enqueue another round and check it all lands on channel 0.
	before := c.QueueLen(1)
	for i := 0; i < 4; i++ {
		r := &mem.Request{ID: uint64(100 + i), Addr: uint64(2*i+1) * 2048, Kind: mem.Read, Thread: 0,
			OnComplete: func(uint64) { done++ }}
		if !c.Enqueue(1<<20, r) {
			t.Fatal("Enqueue rejected after failover")
		}
	}
	if c.QueueLen(1) != before {
		t.Fatal("post-failover traffic still queued on the dead channel")
	}
	q.RunUntil(1 << 21)
	if done != n+4 {
		t.Fatalf("%d of %d post-failover reads completed", done-n, 4)
	}
	// The lifecycle trace must carry the failover milestones.
	var failovers int
	for _, e := range ob.Trace.Events() {
		if e.Kind == obs.KFailover {
			failovers++
			if e.Channel == 1 {
				t.Fatalf("failover milestone still points at the dead channel: %+v", e)
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no KFailover milestones in the trace")
	}
	if uint64(failovers) != c.Stats.FailedOver {
		t.Fatalf("%d failover milestones for %d migrated requests", failovers, c.Stats.FailedOver)
	}
}

func TestRetryMilestonesInTrace(t *testing.T) {
	var q event.Queue
	ob := obs.New(obs.Options{Trace: true})
	c := newFaultyCtl(t, &q, geo1ch(), &faults.Plan{DropRate: 1, Seed: 5}, ob)
	r := &mem.Request{ID: 1, Addr: 0, Kind: mem.Read, Thread: 0}
	c.Enqueue(0, r)
	q.RunUntil(1 << 20)
	var faultsSeen, retries, gaveUp, dones int
	for _, e := range ob.Trace.Events() {
		switch e.Kind {
		case obs.KFault:
			faultsSeen++
			if e.Outcome != "dropped" {
				t.Fatalf("fault outcome %q, want dropped", e.Outcome)
			}
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
	if faultsSeen != 4 || retries != 3 || gaveUp != 1 || dones != 1 {
		t.Fatalf("milestones: %d faults, %d retries, %d give-ups, %d dones; want 4/3/1/1",
			faultsSeen, retries, gaveUp, dones)
	}
}

// TestRetryBudgetIsPerRequest: entries are recycled through the free list, and
// the retry budget must not ride along with the slot. In a traced drop-plan
// run where every request reuses the one entry its predecessors used, each
// request's retry milestones count up from "attempt 1", and a "gave up"
// follows exactly MaxRetries attempts of that same request.
func TestRetryBudgetIsPerRequest(t *testing.T) {
	var q event.Queue
	ob := obs.New(obs.Options{Trace: true})
	c := newFaultyCtl(t, &q, geo1ch(), &faults.Plan{DropRate: 0.6, Seed: 3}, ob)
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
			if attempts[e.ReqID] != c.cfg.MaxRetries {
				t.Fatalf("req %d gave up after %d retries of its own, want %d", e.ReqID, attempts[e.ReqID], c.cfg.MaxRetries)
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
