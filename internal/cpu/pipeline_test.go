package cpu

import (
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/workload"
)

// Deeper pipeline-behaviour tests: LSQ limits, store-buffer backpressure,
// commit width, fetch-block boundaries, and I-cache stalls.

func TestLQBoundsOutstandingLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LQ = 4
	// Independent loads, all missing to slow memory: at most LQ may be
	// dispatched (each holds an LQ entry until commit).
	loads := &script{}
	for i := 0; i < 200; i++ {
		loads.ins = append(loads.ins, workload.Instr{Kind: workload.Load, Addr: uint64(0x10000 + i*4096), Lat: 1})
	}
	r := newRig(t, cfg, loads)
	r.run(150)
	if r.cpu.lqUsed > cfg.LQ {
		t.Fatalf("lqUsed = %d exceeds LQ %d", r.cpu.lqUsed, cfg.LQ)
	}
	if got := r.cpu.threads[0].outstanding(); got > cfg.LQ {
		t.Fatalf("%d loads in flight exceeds LQ %d", got, cfg.LQ)
	}
}

func TestSQBoundsOutstandingStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQ = 4
	stores := &script{}
	for i := 0; i < 200; i++ {
		stores.ins = append(stores.ins, workload.Instr{Kind: workload.Store, Addr: uint64(0x20000 + i*4096), Lat: 1})
	}
	r := newRig(t, cfg, stores)
	for c := uint64(1); c <= 400; c++ {
		r.step(c)
		if r.cpu.sqUsed > cfg.SQ {
			t.Fatalf("cycle %d: sqUsed = %d exceeds SQ %d", c, r.cpu.sqUsed, cfg.SQ)
		}
	}
}

func TestCommitWidthBoundsRetirement(t *testing.T) {
	r := newRig(t, DefaultConfig(), nops())
	var last uint64
	for c := uint64(1); c <= 500; c++ {
		r.step(c)
		if got := r.cpu.Committed(0) - last; got > uint64(r.cpu.cfg.CommitWidth) {
			t.Fatalf("cycle %d: committed %d in one cycle, width %d", c, got, r.cpu.cfg.CommitWidth)
		}
		last = r.cpu.Committed(0)
	}
}

func TestTakenBranchEndsFetchBlock(t *testing.T) {
	// Alternate taken branches and ops: fetch can never bring more than
	// (branch + following block) per cycle from one thread; with a taken
	// branch every 2 instructions, per-cycle fetch is ≈2, capping IPC ≈2.
	s := &script{ins: []workload.Instr{
		{Kind: workload.IntOp, Lat: 1},
		{Kind: workload.Branch, Lat: 1, Taken: true},
	}}
	full := s.ins
	s.ins = nil
	for i := 0; i < 4000; i++ {
		s.ins = append(s.ins, full...)
	}
	r := newRig(t, DefaultConfig(), s)
	r.run(3000)
	ipc := float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	if ipc > 2.2 {
		t.Fatalf("IPC %.2f: taken branches did not bound the fetch block", ipc)
	}
}

func TestICacheMissStallsFetch(t *testing.T) {
	// Real (small) L1I: a PC stream jumping across many lines must generate
	// I-cache misses and fetch stalls.
	r := &rig{t: t}
	r.low = cache.NewFixedLatency(&r.q, 100)
	var err error
	r.l1i, err = cache.New(&r.q, cache.Config{Name: "L1I", SizeBytes: 1024, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 4}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	r.l1d, err = cache.New(&r.q, cache.Config{Name: "L1D", SizeBytes: 4096, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 8}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	// A jumpy code stream: each instruction 4 KB apart (always a new line).
	jumpy := &jumpSrc{}
	r.cpu, err = New(&r.q, DefaultConfig(), []Source{jumpy}, r.l1i, r.l1d)
	if err != nil {
		t.Fatal(err)
	}
	r.run(5000)
	if r.cpu.IMisses(0) == 0 {
		t.Fatal("no I-cache misses on a jumpy code stream")
	}
	ipc := float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	if ipc > 0.7 {
		t.Fatalf("IPC %.2f: I-cache misses should throttle a jumpy stream hard", ipc)
	}
}

type jumpSrc struct{ n uint64 }

func (j *jumpSrc) Next() workload.Instr {
	j.n++
	return workload.Instr{Kind: workload.IntOp, Lat: 1, PC: j.n * 4096}
}

func TestStoreBufferBackpressureDoesNotDeadlock(t *testing.T) {
	// Stores to distinct lines at full rate against a tiny-MSHR L1D: the
	// pending-store buffer must fill and drain without wedging commit.
	cfg := DefaultConfig()
	stores := &script{}
	for i := 0; i < 1000; i++ {
		stores.ins = append(stores.ins, workload.Instr{Kind: workload.Store, Addr: uint64(0x40000 + i*4096), Lat: 1})
	}
	r := &rig{t: t}
	r.low = cache.NewFixedLatency(&r.q, 300)
	var err error
	r.l1i, err = cache.New(&r.q, cache.Config{Name: "L1I", Latency: 1, Perfect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.l1d, err = cache.New(&r.q, cache.Config{Name: "L1D", SizeBytes: 4096, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 2}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	r.cpu, err = New(&r.q, cfg, []Source{stores}, r.l1i, r.l1d)
	if err != nil {
		t.Fatal(err)
	}
	r.run(250_000)
	// Throughput is MSHR-bound (~150 cycles/store with 2 MSHRs at 300-cycle
	// memory); the point is forward progress, not speed.
	if got := r.cpu.Committed(0); got < 1000 {
		t.Fatalf("committed only %d stores: store path wedged", got)
	}
}

func TestEightThreadsShareFairly(t *testing.T) {
	// Eight identical compute threads must end up within 2× of each other.
	cfg := DefaultConfig()
	cfg.Policy = ICOUNT
	srcs := make([]Source, 8)
	for i := range srcs {
		srcs[i] = nops()
	}
	r := newRig(t, cfg, srcs...)
	r.run(5000)
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < 8; i++ {
		c := r.cpu.Committed(i)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 || hi > lo*2 {
		t.Fatalf("unfair sharing: min %d, max %d", lo, hi)
	}
}

// The in-flight-load list is trimmed by Tick, not by whichever policy happens
// to ask about misses: under every fetch policy it holds only loads that still
// hold a load-queue entry, however long the run.
func TestInFlightListStaysWithinLQ(t *testing.T) {
	for _, p := range []FetchPolicy{RoundRobin, ICOUNT, FetchStall, DG, DWarn, Coop} {
		cfg := DefaultConfig()
		cfg.Policy = p
		r := newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "art", 1))
		for now := uint64(1); now <= 6_000; now++ {
			r.step(now)
			for _, th := range r.cpu.threads {
				if got := th.outstanding(); got > cfg.LQ {
					t.Fatalf("%v, cycle %d: thread %d lists %d loads in flight, LQ holds %d", p, now, th.id, got, cfg.LQ)
				}
			}
		}
	}
}
