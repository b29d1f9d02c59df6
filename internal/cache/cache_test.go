package cache

import (
	"testing"
	"testing/quick"

	"smtdram/internal/event"
	"smtdram/internal/mem"
)

func smallCfg(name string) Config {
	return Config{Name: name, SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 4}
}

func newSmall(t *testing.T, q *event.Queue, lower Backend) *Level {
	t.Helper()
	l, err := New(q, smallCfg("L1"), lower)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"good", smallCfg("x"), true},
		{"perfect ignores geometry", Config{Perfect: true}, true},
		{"zero size", Config{SizeBytes: 0, Assoc: 2, LineBytes: 64, MSHRs: 1}, false},
		{"bad assoc split", Config{SizeBytes: 192, Assoc: 4, LineBytes: 64, MSHRs: 1}, false},
		{"no mshrs", Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64, MSHRs: 0}, false},
		{"line size not a power of two", Config{SizeBytes: 960, Assoc: 2, LineBytes: 48, MSHRs: 1}, false},
		{"set count not a power of two", Config{SizeBytes: 96 << 10, Assoc: 2, LineBytes: 64, MSHRs: 1}, true},
		{"one set of 1-byte lines", Config{SizeBytes: 4, Assoc: 4, LineBytes: 1, MSHRs: 1}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// A word holds a tag, the address less its line offset and set index,
	// under two flag bits: 48-6-9+2 bits fit five bytes for Table 1's 512-set
	// L1s, 48-6-12+2 and 48-6-14+2 four for its 4,096-set L2 and its L3.
	for _, c := range []struct {
		cfg Config
		wb  uint64
	}{
		{Config{Name: "L1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, MSHRs: 16}, 5},
		{Config{Name: "L2", SizeBytes: 512 << 10, Assoc: 2, LineBytes: 64, MSHRs: 16}, 4},
		{Config{Name: "L3", SizeBytes: 4 << 20, Assoc: 4, LineBytes: 64, MSHRs: 16}, 4},
	} {
		if l, err := New(&event.Queue{}, c.cfg, nil); err != nil || l.wb != c.wb {
			t.Errorf("Table 1 %s: %d-byte words (%v), want %d", c.cfg.Name, l.wb, err, c.wb)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	var q event.Queue
	lower := NewFixedLatency(&q, 100)
	l := newSmall(t, &q, lower)

	var first, second uint64
	l.ReadLine(0, 0x1000, Meta{Thread: 0}, event.FillFunc(func(at uint64) { first = at }))
	q.RunUntil(1 << 20)
	if first != 101 { // L1 latency 1 + lower 100
		t.Fatalf("miss completion at %d, want 101", first)
	}
	if !l.Contains(0x1000) {
		t.Fatal("line not installed after fill")
	}
	l.ReadLine(200, 0x1000, Meta{Thread: 0}, event.FillFunc(func(at uint64) { second = at }))
	q.RunUntil(1 << 20)
	if second != 201 { // hit: L1 latency only
		t.Fatalf("hit completion at %d, want 201", second)
	}
	if l.Stats.Accesses != 2 || l.Stats.Misses != 1 {
		t.Fatalf("accesses/misses = %d/%d, want 2/1", l.Stats.Accesses, l.Stats.Misses)
	}
	if got := l.Stats.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", got)
	}
}

func TestMissMerging(t *testing.T) {
	var q event.Queue
	lower := NewFixedLatency(&q, 100)
	l := newSmall(t, &q, lower)

	var done int
	for i := 0; i < 3; i++ {
		// Same line, different offsets: one fill must wake all three.
		if !l.ReadLine(0, 0x2000+uint64(i*8), Meta{}, event.FillFunc(func(uint64) { done++ })) {
			t.Fatal("merged access rejected")
		}
	}
	q.RunUntil(1 << 20)
	if done != 3 {
		t.Fatalf("%d waiters woken, want 3", done)
	}
	if lower.Reads != 1 {
		t.Fatalf("lower saw %d reads, want 1 (merged)", lower.Reads)
	}
	if l.Stats.Merged != 2 {
		t.Fatalf("Merged = %d, want 2", l.Stats.Merged)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	var q event.Queue
	l := newSmall(t, &q, NewFixedLatency(&q, 1000))
	accepted := 0
	for i := 0; i < 10; i++ {
		if l.ReadLine(0, uint64(i)*0x1000, Meta{}, event.FillFunc(func(uint64) {})) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d distinct misses, want 4 (MSHR limit)", accepted)
	}
	if l.Stats.MSHRFull != 6 {
		t.Fatalf("MSHRFull = %d, want 6", l.Stats.MSHRFull)
	}
	if l.OutstandingMisses() != 4 {
		t.Fatalf("OutstandingMisses = %d, want 4", l.OutstandingMisses())
	}
	q.RunUntil(1 << 20)
	if l.OutstandingMisses() != 0 {
		t.Fatal("MSHRs not released after fills")
	}
}

// index is the one place set geometry is applied: on power-of-two and other
// set counts alike it must agree with the plain division it replaced, and
// victimAddr must invert it.
func TestIndexMatchesDivision(t *testing.T) {
	for _, g := range []struct {
		name                   string
		size, assoc, lineBytes int
		wantSets               uint64
	}{
		{"8 sets", 1024, 2, 64, 8},
		{"one set", 256, 4, 64, 1},
		{"96KB 3-way: odd ways, 512 sets", 96 << 10, 3, 64, 512},
		{"96KB 2-way: 768 sets", 96 << 10, 2, 64, 768},
		{"3 sets of 128B lines", 384, 1, 128, 3},
	} {
		var q event.Queue
		l, err := New(&q, Config{Name: g.name, SizeBytes: g.size, Assoc: g.assoc, LineBytes: g.lineBytes, MSHRs: 1}, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if l.nsets != g.wantSets {
			t.Fatalf("%s: %d sets, want %d", g.name, l.nsets, g.wantSets)
		}
		for _, addr := range []uint64{0, 63, 64, 4096, 96<<10 - 1, 96 << 10, 0xdeadbeef, 7<<40 + 12345, ^uint64(0)} {
			la := l.lineAddr(addr)
			n := la / uint64(g.lineBytes)
			set, tag := l.index(la)
			if set != n%g.wantSets || tag != n/g.wantSets {
				t.Errorf("%s: index(%#x) = (%d, %d), want (%d, %d)", g.name, la, set, tag, n%g.wantSets, n/g.wantSets)
			}
			if got := l.victimAddr(set, tag); got != la {
				t.Errorf("%s: victimAddr(index(%#x)) = %#x", g.name, la, got)
			}
		}
	}
}

// writeLog is a Backend that records the address of every writeback.
type writeLog struct{ writes []uint64 }

func (w *writeLog) ReadLine(uint64, uint64, Meta, event.Filler) bool { return true }
func (w *writeLog) WriteLine(_ uint64, addr uint64, _ Meta) bool {
	w.writes = append(w.writes, addr)
	return true
}

// A dirty victim's writeback address survives the divide path: 768 sets,
// two lines a set stride apart share a set, the third evicts the first.
func TestWritebackAddressWithOddSetCount(t *testing.T) {
	var q event.Queue
	lower := &writeLog{}
	l, err := New(&q, Config{Name: "odd", SizeBytes: 96 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 4}, lower)
	if err != nil {
		t.Fatal(err)
	}
	const stride = 768 * 64
	base := uint64(5*stride + 17*64)
	for i := uint64(0); i < 3; i++ {
		if !l.WriteLine(i, base+i*stride, Meta{}) {
			t.Fatal("writeback install rejected")
		}
	}
	if len(lower.writes) != 1 || lower.writes[0] != base {
		t.Fatalf("writebacks = %#x, want exactly [%#x]", lower.writes, base)
	}
	if l.Contains(base) || !l.Contains(base+stride) || !l.Contains(base+2*stride) {
		t.Fatal("wrong line evicted")
	}
}

func TestLRUEviction(t *testing.T) {
	var q event.Queue
	l := newSmall(t, &q, NewFixedLatency(&q, 10))
	// 1024B/64B/2-way = 8 sets; set stride = 512B. Three lines in one set.
	a, b, c := uint64(0), uint64(512), uint64(1024)
	for _, addr := range []uint64{a, b} {
		l.ReadLine(0, addr, Meta{}, nil)
	}
	q.RunUntil(1 << 20)
	// Touch a so b becomes LRU.
	l.ReadLine(100, a, Meta{}, nil)
	q.RunUntil(1 << 20)
	l.ReadLine(200, c, Meta{}, nil)
	q.RunUntil(1 << 20)
	if !l.Contains(a) || !l.Contains(c) {
		t.Fatal("expected a and c resident")
	}
	if l.Contains(b) {
		t.Fatal("LRU victim b still resident")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	var q event.Queue
	lower := NewFixedLatency(&q, 10)
	l := newSmall(t, &q, lower)

	// Store misses allocate and dirty the line.
	if !l.WriteLine(0, 0x40, Meta{Thread: 0}) {
		t.Fatal("store miss rejected")
	}
	q.RunUntil(1 << 20)
	if !l.Contains(0x40) {
		t.Fatal("store miss did not allocate")
	}
	// Evict it by filling the set with two more lines (2-way).
	l.ReadLine(100, 0x40+512, Meta{}, nil)
	l.ReadLine(100, 0x40+1024, Meta{}, nil)
	q.RunUntil(1 << 20)
	if lower.Writes != 1 {
		t.Fatalf("lower saw %d writebacks, want 1", lower.Writes)
	}
	if l.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", l.Stats.Writebacks)
	}
}

func TestStoreHitMarksDirtyWithoutTraffic(t *testing.T) {
	var q event.Queue
	lower := NewFixedLatency(&q, 10)
	l := newSmall(t, &q, lower)
	l.ReadLine(0, 0x80, Meta{}, nil)
	q.RunUntil(1 << 20)
	reads := lower.Reads
	if !l.WriteLine(50, 0x80, Meta{}) {
		t.Fatal("store hit rejected")
	}
	if lower.Reads != reads {
		t.Fatal("store hit generated lower-level traffic")
	}
}

func TestPerfectLevelAlwaysHits(t *testing.T) {
	var q event.Queue
	l, err := New(&q, Config{Name: "pL3", Latency: 20, Perfect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var at uint64
	for i := 0; i < 100; i++ {
		if !l.ReadLine(0, uint64(i)*4096, Meta{}, event.FillFunc(func(a uint64) { at = a })) {
			t.Fatal("perfect level rejected access")
		}
	}
	q.RunUntil(1 << 20)
	if at != 20 {
		t.Fatalf("perfect hit completes at %d, want 20", at)
	}
	if l.Stats.Misses != 0 {
		t.Fatal("perfect level recorded misses")
	}
	if !l.WriteLine(0, 0, Meta{}) {
		t.Fatal("perfect level rejected write")
	}
}

func TestTwoLevelStack(t *testing.T) {
	var q event.Queue
	memb := NewFixedLatency(&q, 300)
	l2, err := New(&q, Config{Name: "L2", SizeBytes: 4096, Assoc: 2, LineBytes: 64, Latency: 10, MSHRs: 4}, memb)
	if err != nil {
		t.Fatal(err)
	}
	l1 := newSmall(t, &q, l2)

	var at uint64
	l1.ReadLine(0, 0x5000, Meta{Thread: 1}, event.FillFunc(func(a uint64) { at = a }))
	q.RunUntil(1 << 20)
	// 1 (L1) + 10 (L2 lookup) + 300 (memory) = 311.
	if at != 311 {
		t.Fatalf("two-level miss completes at %d, want 311", at)
	}
	if !l1.Contains(0x5000) || !l2.Contains(0x5000) {
		t.Fatal("fill did not populate both levels")
	}
	// L1 eviction writes back into L2, not memory.
	at = 0
	l1.ReadLine(1000, 0x5000+512, Meta{}, nil)
	l1.ReadLine(1000, 0x5000+1024, Meta{}, nil)
	q.RunUntil(1 << 20)
	if memb.Writes != 0 {
		t.Fatal("clean L1 victim reached memory")
	}
}

func TestMissHooks(t *testing.T) {
	var q event.Queue
	l := newSmall(t, &q, NewFixedLatency(&q, 50))
	var begins, ends int
	l.MissBegin = func(Meta) { begins++ }
	l.MissEnd = func(Meta) { ends++ }
	l.ReadLine(0, 0x100, Meta{}, nil)
	l.ReadLine(0, 0x100, Meta{}, nil) // merge: no second begin
	if begins != 1 {
		t.Fatalf("begins = %d, want 1", begins)
	}
	q.RunUntil(1 << 20)
	if ends != 1 {
		t.Fatalf("ends = %d, want 1", ends)
	}
}

func TestBackendRetryOnRejection(t *testing.T) {
	var q event.Queue
	rej := &rejecting{q: &q, after: 3}
	l := newSmall(t, &q, rej)
	var at uint64
	l.ReadLine(0, 0x300, Meta{}, event.FillFunc(func(a uint64) { at = a }))
	q.RunUntil(1 << 20)
	if at == 0 {
		t.Fatal("fill never completed despite retries")
	}
	if rej.attempts < 4 {
		t.Fatalf("lower saw %d attempts, want ≥4", rej.attempts)
	}
}

// rejecting refuses the first `after` ReadLine calls.
type rejecting struct {
	q        *event.Queue
	after    int
	attempts int
}

func (r *rejecting) ReadLine(now uint64, addr uint64, meta Meta, done event.Filler) bool {
	r.attempts++
	if r.attempts <= r.after {
		return false
	}
	r.q.ScheduleFiller(now+1, done)
	return true
}
func (r *rejecting) WriteLine(uint64, uint64, Meta) bool { return true }

// Property: after any sequence of reads, a repeated read to any previously
// read address hits (no spurious invalidation), as long as the trace touches
// at most Assoc distinct lines per set.
func TestPropertyResidency(t *testing.T) {
	f := func(offsets []uint8) bool {
		var q event.Queue
		l, err := New(&q, Config{Name: "p", SizeBytes: 8192, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16}, NewFixedLatency(&q, 10))
		if err != nil {
			return false
		}
		// 64 sets: use at most 2 distinct lines per set by construction.
		for _, o := range offsets {
			addr := uint64(o&63)*64 + uint64(o>>7)*8192
			l.ReadLine(0, addr, Meta{}, nil)
			q.RunUntil(1 << 20)
			if !l.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemBackendTranslation(t *testing.T) {
	var q event.Queue
	ctrl := &fakeCtrl{}
	b := NewMemBackend(&q, ctrl)
	meta := Meta{Thread: 3, State: mem.ThreadState{ROBOccupancy: 100, IQOccupancy: 9}}
	var at uint64
	if !b.ReadLine(5, 0xABC0, meta, event.FillFunc(func(a uint64) { at = a })) {
		t.Fatal("ReadLine rejected")
	}
	if len(ctrl.got) != 1 {
		t.Fatalf("controller saw %d requests", len(ctrl.got))
	}
	r := ctrl.got[0]
	if r.Thread != 3 || r.State.ROBOccupancy != 100 || r.Kind != mem.Read {
		t.Fatalf("request fields wrong: %+v", r)
	}
	r.OnComplete(99)
	if at != 99 {
		t.Fatal("completion not propagated")
	}
	if !b.WriteLine(6, 0xDEF0, Meta{Thread: mem.InvalidThread}) {
		t.Fatal("WriteLine rejected")
	}
	if ctrl.got[1].Kind != mem.Write {
		t.Fatal("writeback not translated to write request")
	}
}

func TestMemBackendBuffersRejections(t *testing.T) {
	var q event.Queue
	ctrl := &fakeCtrl{rejectFirst: 2}
	b := NewMemBackend(&q, ctrl)
	var done bool
	if !b.ReadLine(0, 0x40, Meta{}, event.FillFunc(func(uint64) { done = true })) {
		t.Fatal("backend should buffer the first rejection")
	}
	q.RunUntil(1 << 20)
	if len(ctrl.got) != 1 {
		t.Fatalf("controller accepted %d requests, want 1 after retries", len(ctrl.got))
	}
	ctrl.got[0].OnComplete(1)
	if !done {
		t.Fatal("buffered request never completed")
	}
}

type fakeCtrl struct {
	got         []*mem.Request
	rejectFirst int
}

func (f *fakeCtrl) Enqueue(now uint64, r *mem.Request) bool {
	if f.rejectFirst > 0 {
		f.rejectFirst--
		return false
	}
	f.got = append(f.got, r)
	return true
}
