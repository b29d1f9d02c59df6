package memctrl

import (
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/mem"
)

func geo1ch() addrmap.Geometry {
	return addrmap.Geometry{Channels: 1, ChipsPerChannel: 1, BanksPerChip: 4, PageBytes: 2048, LineBytes: 64}
}

func geo2ch() addrmap.Geometry {
	return addrmap.Geometry{Channels: 2, ChipsPerChannel: 1, BanksPerChip: 4, PageBytes: 2048, LineBytes: 64}
}

func newCtl(t *testing.T, q *event.Queue, pol Policy, threads int) *Controller {
	t.Helper()
	m, err := addrmap.NewMapper(geo1ch(), addrmap.Page)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(q, Config{
		Mapper:      m,
		Params:      dram.DDRParams(16, 64, dram.OpenPage),
		Policy:      pol,
		MaxInFlight: 1, // serialize dispatch so ordering is observable
		Threads:     threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addrFor builds an address that page-maps to (bank, row) in the 1-channel
// geometry: page index = row*4 + bank.
func addrFor(bank, row int) uint64 {
	return uint64(row*4+bank) * 2048
}

type doneRec struct {
	order []uint64
}

func (d *doneRec) req(id uint64, addr uint64, kind mem.Kind, thread int) *mem.Request {
	return &mem.Request{
		ID: id, Addr: addr, Kind: kind, Thread: thread,
		OnComplete: func(uint64) { d.order = append(d.order, id) },
	}
}

func TestEnqueueCompleteRoundTrip(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	var done uint64
	r := &mem.Request{ID: 1, Addr: 0, Kind: mem.Read, Thread: 0, OnComplete: func(at uint64) { done = at }}
	if !c.Enqueue(0, r) {
		t.Fatal("Enqueue rejected on empty queue")
	}
	q.RunUntil(1 << 20)
	if done == 0 {
		t.Fatal("request never completed")
	}
	// closed-bank access: TRCD+CL+Burst = 45+45+30
	if done != 120 {
		t.Fatalf("completion at %d, want 120", done)
	}
	if c.Stats.Reads != 1 {
		t.Fatalf("Reads = %d, want 1", c.Stats.Reads)
	}
	if c.Stats.AvgReadLatency() != 120 {
		t.Fatalf("AvgReadLatency = %v, want 120", c.Stats.AvgReadLatency())
	}
}

func TestQueueFullRejects(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	var n int
	for i := 0; i < 200; i++ {
		r := &mem.Request{ID: uint64(i), Addr: addrFor(i%4, i), Kind: mem.Read, Thread: 0}
		if c.Enqueue(0, r) {
			n++
		}
	}
	// 64 queued + 1 in flight.
	if n != 65 {
		t.Fatalf("accepted %d requests, want 65 (queue depth 64 + 1 in flight)", n)
	}
	if c.Stats.Rejected != 200-65 {
		t.Fatalf("Rejected = %d, want %d", c.Stats.Rejected, 200-65)
	}
	if c.QueueLen(0) != 64 {
		t.Fatalf("QueueLen = %d, want 64", c.QueueLen(0))
	}
}

func TestFCFSReadBypassesWrite(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	var d doneRec
	// Request 0 occupies the in-flight slot; then a write ahead of a read.
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0))
	c.Enqueue(0, d.req(1, addrFor(1, 0), mem.Write, mem.InvalidThread))
	c.Enqueue(0, d.req(2, addrFor(2, 0), mem.Read, 0))
	q.RunUntil(1 << 20)
	want := []uint64{0, 2, 1}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want %v", d.order, want)
		}
	}
}

func TestFCFSKeepsArrivalOrderAmongReads(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	var d doneRec
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0))
	// A row-buffer hit candidate (same row as 0) arrives after a conflict
	// candidate; FCFS must not reorder.
	c.Enqueue(0, d.req(1, addrFor(1, 5), mem.Read, 0))
	c.Enqueue(0, d.req(2, addrFor(0, 0), mem.Read, 0))
	q.RunUntil(1 << 20)
	want := []uint64{0, 1, 2}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want %v", d.order, want)
		}
	}
}

func TestHitFirstReordersToOpenRow(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, HitFirst, 1)
	var d doneRec
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // in flight; opens bank0/row0
	c.Enqueue(0, d.req(1, addrFor(0, 9), mem.Read, 0)) // conflict on bank0
	c.Enqueue(0, d.req(2, addrFor(0, 0), mem.Read, 0)) // hit on bank0/row0
	q.RunUntil(1 << 20)
	want := []uint64{0, 2, 1}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want %v (hit-first)", d.order, want)
		}
	}
	if c.Stats.Reads != 3 {
		t.Fatalf("Reads = %d", c.Stats.Reads)
	}
	h, _, _ := c.RowBufferStats()
	if h != 1 {
		t.Fatalf("row-buffer hits = %d, want 1", h)
	}
}

func TestRequestBasedFavorsFewestPending(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, RequestBased, 2)
	var d doneRec
	// Thread 0 floods; thread 1 has a single request that arrives last.
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // in flight
	c.Enqueue(0, d.req(1, addrFor(1, 1), mem.Read, 0))
	c.Enqueue(0, d.req(2, addrFor(2, 2), mem.Read, 0))
	c.Enqueue(0, d.req(3, addrFor(3, 3), mem.Read, 1)) // lone thread-1 request
	if got := c.Outstanding(0); got != 3 {
		t.Fatalf("Outstanding(0) = %d, want 3", got)
	}
	if got := c.Outstanding(1); got != 1 {
		t.Fatalf("Outstanding(1) = %d, want 1", got)
	}
	q.RunUntil(1 << 20)
	if d.order[1] != 3 {
		t.Fatalf("completion order %v: thread 1's lone request must be served first after the in-flight one", d.order)
	}
}

func TestRequestBasedHitStillBeatsThreadPriority(t *testing.T) {
	// "a read hit always gets a higher priority than a read miss even if the
	// hit is generated by a thread with more pending requests."
	var q event.Queue
	c := newCtl(t, &q, RequestBased, 2)
	var d doneRec
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // opens bank0 row0
	c.Enqueue(0, d.req(1, addrFor(0, 0), mem.Read, 0)) // hit, busy thread
	c.Enqueue(0, d.req(2, addrFor(0, 0), mem.Read, 0)) // hit, busy thread
	c.Enqueue(0, d.req(3, addrFor(1, 3), mem.Read, 1)) // miss, quiet thread
	q.RunUntil(1 << 20)
	if d.order[3] != 3 {
		t.Fatalf("completion order %v: the miss must wait for the hits", d.order)
	}
}

func TestROBBasedPriority(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, ROBBased, 2)
	var d doneRec
	mk := func(id uint64, bank, row, rob int) *mem.Request {
		r := d.req(id, addrFor(bank, row), mem.Read, 0)
		r.State.ROBOccupancy = rob
		return r
	}
	c.Enqueue(0, mk(0, 0, 0, 10)) // in flight
	c.Enqueue(0, mk(1, 1, 1, 50))
	c.Enqueue(0, mk(2, 2, 2, 200)) // most ROB entries → first
	c.Enqueue(0, mk(3, 3, 3, 120))
	q.RunUntil(1 << 20)
	want := []uint64{0, 2, 3, 1}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want %v (ROB-based)", d.order, want)
		}
	}
}

func TestIQBasedPriority(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, IQBased, 2)
	var d doneRec
	mk := func(id uint64, bank, row, iq int) *mem.Request {
		r := d.req(id, addrFor(bank, row), mem.Read, 0)
		r.State.IQOccupancy = iq
		return r
	}
	c.Enqueue(0, mk(0, 0, 0, 1))
	c.Enqueue(0, mk(1, 1, 1, 5))
	c.Enqueue(0, mk(2, 2, 2, 40))
	q.RunUntil(1 << 20)
	want := []uint64{0, 2, 1}
	for i, id := range want {
		if d.order[i] != id {
			t.Fatalf("completion order %v, want %v (IQ-based)", d.order, want)
		}
	}
}

func TestAgeBasedPromotesOldestUnderLoad(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, AgeBased, 1)
	var d doneRec
	// Fill beyond the age threshold (8 outstanding). Entry 1 is a conflict
	// that hit-first would postpone; age promotion must serve it first
	// anyway because it is oldest once >8 requests are outstanding.
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0)) // in flight, opens row0
	c.Enqueue(0, d.req(1, addrFor(0, 9), mem.Read, 0)) // oldest queued, conflict
	for i := 2; i < 10; i++ {
		c.Enqueue(0, d.req(uint64(i), addrFor(0, 0), mem.Read, 0)) // hits
	}
	q.RunUntil(1 << 20)
	if d.order[1] != 1 {
		t.Fatalf("completion order %v: age-based must promote the oldest under load", d.order)
	}
}

func TestWriteStarvationGuard(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, HitFirst, 1)
	var d doneRec
	// One write buried under a near-full queue of reads: once the queue
	// passes 3/4 depth, oldest-first kicks in and the write gets served.
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0))
	c.Enqueue(0, d.req(1, addrFor(1, 1), mem.Write, mem.InvalidThread))
	for i := 2; i < 60; i++ {
		if !c.Enqueue(0, d.req(uint64(i), addrFor(0, 0), mem.Read, 0)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	q.RunUntil(1 << 22)
	if len(d.order) != 60 {
		t.Fatalf("completed %d of 60", len(d.order))
	}
	// The write must not be the very last completion.
	if d.order[len(d.order)-1] == 1 {
		t.Fatal("write starved to the end despite guard")
	}
}

func TestConcurrencyHistograms(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 2)
	var d doneRec
	c.Enqueue(0, d.req(0, addrFor(0, 0), mem.Read, 0))
	c.Enqueue(10, d.req(1, addrFor(1, 1), mem.Read, 1))
	q.RunUntil(1 << 20)
	c.FinishStats(1 << 20)

	st := &c.Stats
	if st.BusyCycles() == 0 {
		t.Fatal("no busy cycles recorded")
	}
	if st.OutstandingHist[2] == 0 {
		t.Fatal("never observed 2 outstanding requests")
	}
	if st.ThreadSpreadHist[2] == 0 {
		t.Fatal("never observed 2 threads with pending requests")
	}
	// Conservation: thread-spread time equals time with ≥2 outstanding.
	var ge2, spread uint64
	for i := 2; i < len(st.OutstandingHist); i++ {
		ge2 += st.OutstandingHist[i]
	}
	for _, v := range st.ThreadSpreadHist {
		spread += v
	}
	if ge2 != spread {
		t.Fatalf("thread-spread cycles %d != ≥2-outstanding cycles %d", spread, ge2)
	}
}

func TestOutstandingDropsToZero(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	c.Enqueue(0, &mem.Request{ID: 0, Addr: 0, Kind: mem.Read, Thread: 0})
	q.RunUntil(1 << 20)
	if got := c.Outstanding(0); got != 0 {
		t.Fatalf("Outstanding after drain = %d, want 0", got)
	}
}

func TestMultiChannelIndependence(t *testing.T) {
	var q event.Queue
	g := geo1ch()
	g.Channels = 2
	m, _ := addrmap.NewMapper(g, addrmap.Page)
	c, err := New(&q, Config{Mapper: m, Params: dram.DDRParams(16, 64, dram.OpenPage), Policy: FCFS, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var done [2]uint64
	// Page 0 → channel 0, page 1 → channel 1.
	c.Enqueue(0, &mem.Request{ID: 0, Addr: 0, Kind: mem.Read, Thread: 0, OnComplete: func(at uint64) { done[0] = at }})
	c.Enqueue(0, &mem.Request{ID: 1, Addr: 2048, Kind: mem.Read, Thread: 0, OnComplete: func(at uint64) { done[1] = at }})
	q.RunUntil(1 << 20)
	if done[0] != done[1] || done[0] != 120 {
		t.Fatalf("independent channels should complete in parallel: %v", done)
	}
	if len(c.Channels()) != 2 {
		t.Fatalf("Channels() = %d, want 2", len(c.Channels()))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy accepted nonsense")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy must print")
	}
}

func TestWritebackThreadKeySortsLast(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, RequestBased, 1)
	e := &entry{req: &mem.Request{Thread: mem.InvalidThread}}
	if c.threadKey(e) != int(^uint(0)>>1) {
		t.Fatal("invalid-thread key must be max int")
	}
}
