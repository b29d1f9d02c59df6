package cpu

import (
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/event"
	"smtdram/internal/workload"
)

// script replays a fixed instruction slice, then repeats its last
// instruction forever (PCs keep advancing to stay realistic).
type script struct {
	ins []workload.Instr
	i   int
	pc  uint64
}

func (s *script) Next() workload.Instr {
	var in workload.Instr
	if s.i < len(s.ins) {
		in = s.ins[s.i]
		s.i++
	} else if len(s.ins) > 0 {
		in = s.ins[len(s.ins)-1]
		in.Taken = false
		in.Mispredict = false
	}
	if in.PC == 0 {
		in.PC = s.pc
	}
	s.pc = in.PC + 4
	if in.Lat == 0 {
		in.Lat = 1
	}
	return in
}

// nops returns an endless stream of independent single-cycle integer ops.
func nops() *script {
	return &script{ins: []workload.Instr{{Kind: workload.IntOp, Lat: 1}}}
}

type rig struct {
	t   testing.TB
	q   event.Queue
	cpu *CPU
	l1i *cache.Level
	l1d *cache.Level
	low *cache.FixedLatency
}

// newRig builds a CPU with perfect L1I and a small real L1D over a
// fixed-latency (200-cycle) memory.
func newRig(t testing.TB, cfg Config, srcs ...Source) *rig {
	t.Helper()
	return newRigLat(t, cfg, 200, srcs...)
}

func newRigLat(t testing.TB, cfg Config, memLat uint64, srcs ...Source) *rig {
	t.Helper()
	r := &rig{t: t}
	r.low = cache.NewFixedLatency(&r.q, memLat)
	var err error
	r.l1i, err = cache.New(&r.q, cache.Config{Name: "L1I", Latency: 1, Perfect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.l1d, err = cache.New(&r.q, cache.Config{Name: "L1D", SizeBytes: 4096, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 8}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	r.cpu, err = New(&r.q, cfg, srcs, r.l1i, r.l1d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(cycles uint64) {
	for c := uint64(1); c <= cycles; c++ {
		r.step(c)
	}
}

// step lands cycle c — its events, then its Tick — with the wakeup
// structures' invariants checked after each half and the Tick's issue
// decisions checked against the full-queue oracle (wakeup_test.go).
func (r *rig) step(c uint64) {
	r.q.RunUntil(c)
	checkWakeup(r.t, r.cpu, c)
	o := beginOracle(r.cpu, r.l1d)
	r.cpu.Tick(c)
	o.verify(r.t, c)
	checkWakeup(r.t, r.cpu, c)
}

func TestValidateConfig(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.IntIQ = 0
	if bad.Validate() == nil {
		t.Fatal("Validate accepted zero issue queue")
	}
	if _, err := New(&event.Queue{}, bad, []Source{nops()}, nil, nil); err == nil {
		t.Fatal("New accepted invalid config")
	}
	if _, err := New(&event.Queue{}, DefaultConfig(), nil, nil, nil); err == nil {
		t.Fatal("New accepted zero threads")
	}
}

func TestStraightLineIPC(t *testing.T) {
	r := newRig(t, DefaultConfig(), nops())
	r.run(2000)
	ipc := float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	// Independent 1-cycle int ops, width 8 everywhere but a single thread
	// with fetch-block effects: expect high IPC, bounded by width.
	if ipc < 5 || ipc > 8 {
		t.Fatalf("straight-line IPC = %.2f, want within (5, 8]", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// Every op depends on the previous: IPC must collapse toward 1.
	chain := &script{ins: []workload.Instr{{Kind: workload.IntOp, Lat: 1, Dep1: 1}}}
	r := newRig(t, DefaultConfig(), chain)
	r.run(2000)
	ipc := float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	if ipc > 1.2 {
		t.Fatalf("dependent-chain IPC = %.2f, want ≈1", ipc)
	}
	if ipc < 0.5 {
		t.Fatalf("dependent-chain IPC = %.2f: pipeline wedged", ipc)
	}
}

func TestFPWidthLimits(t *testing.T) {
	// Independent FP ops: issue width 4 and only 2 FPALUs → IPC ≤ 2.
	fp := &script{ins: []workload.Instr{{Kind: workload.FPOp, Lat: 4}}}
	r := newRig(t, DefaultConfig(), fp)
	r.run(3000)
	ipc := float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	if ipc > 2.05 {
		t.Fatalf("FP IPC = %.2f exceeds FPALU throughput of 2", ipc)
	}
	if ipc < 1.0 {
		t.Fatalf("FP IPC = %.2f: FP pipeline underperforming", ipc)
	}
}

func TestLoadMissStallsAndRecovers(t *testing.T) {
	// A pointer-chase: each load depends on the previous and misses (new
	// lines). Progress is gated by the 200-cycle memory.
	var ins []workload.Instr
	for i := 0; i < 50; i++ {
		ins = append(ins, workload.Instr{Kind: workload.Load, Addr: uint64(0x10000 + i*4096), Dep1: 1, Lat: 1})
	}
	r := newRig(t, DefaultConfig(), &script{ins: ins})
	r.run(40000)
	if got := r.cpu.Committed(0); got < 50 {
		t.Fatalf("committed %d, want ≥ 50 (chain must complete)", got)
	}
	loads, _ := r.cpu.LoadsStores(0)
	if loads < 50 {
		t.Fatalf("issued %d loads, want ≥ 50", loads)
	}
	if r.l1d.Stats.Misses < 40 {
		t.Fatalf("L1D saw %d misses, want ≈50", r.l1d.Stats.Misses)
	}
}

func TestStoresReachCache(t *testing.T) {
	st := &script{ins: []workload.Instr{{Kind: workload.Store, Addr: 0x9000, Lat: 1}}}
	r := newRig(t, DefaultConfig(), st)
	r.run(3000)
	_, stores := r.cpu.LoadsStores(0)
	if stores == 0 {
		t.Fatal("no stores issued")
	}
	if r.l1d.Stats.Accesses == 0 {
		t.Fatal("stores never reached the L1D")
	}
}

func TestMispredictSquashReplaysCorrectly(t *testing.T) {
	// A mispredicted branch every 20 instructions. All instructions must
	// still commit exactly once, in order (committed count grows without
	// double-count: we use a target to check).
	var ins []workload.Instr
	for i := 0; i < 400; i++ {
		if i%20 == 19 {
			ins = append(ins, workload.Instr{Kind: workload.Branch, Lat: 1, Mispredict: true})
		} else {
			ins = append(ins, workload.Instr{Kind: workload.IntOp, Lat: 1})
		}
	}
	r := newRig(t, DefaultConfig(), &script{ins: ins})
	r.cpu.SetTarget(0, 400)
	r.run(20000)
	if r.cpu.Committed(0) < 400 {
		t.Fatalf("committed %d, want ≥400", r.cpu.Committed(0))
	}
	if r.cpu.Squashes(0) == 0 {
		t.Fatal("no squashes recorded despite mispredicted branches")
	}
	if r.cpu.FinishedAt(0) == 0 {
		t.Fatal("target not reached")
	}
}

func TestMispredictsReduceIPC(t *testing.T) {
	mk := func(mispredict bool) float64 {
		var ins []workload.Instr
		for i := 0; i < 10; i++ {
			ins = append(ins, workload.Instr{Kind: workload.IntOp, Lat: 1})
		}
		ins = append(ins, workload.Instr{Kind: workload.Branch, Lat: 1, Mispredict: mispredict})
		// Loop the block forever.
		s := &script{ins: ins}
		orig := s.ins
		s.ins = nil
		for i := 0; i < 1000; i++ {
			s.ins = append(s.ins, orig...)
		}
		r := newRig(t, DefaultConfig(), s)
		r.run(4000)
		return float64(r.cpu.Committed(0)) / float64(r.cpu.Cycles)
	}
	clean, dirty := mk(false), mk(true)
	if dirty >= clean {
		t.Fatalf("mispredicts did not hurt: clean %.2f vs dirty %.2f", clean, dirty)
	}
}

func TestSMTThroughputBeatsSingleThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = ICOUNT
	// One dependent chain alone vs two chains together: SMT should roughly
	// double total throughput.
	chain := func() Source {
		return &script{ins: []workload.Instr{{Kind: workload.IntOp, Lat: 1, Dep1: 1}}}
	}
	r1 := newRig(t, cfg, chain())
	r1.run(3000)
	single := float64(r1.cpu.TotalCommitted) / float64(r1.cpu.Cycles)

	r2 := newRig(t, cfg, chain(), chain())
	r2.run(3000)
	dual := float64(r2.cpu.TotalCommitted) / float64(r2.cpu.Cycles)
	if dual < 1.7*single {
		t.Fatalf("SMT throughput %.2f vs single %.2f: expected ≈2×", dual, single)
	}
}

func TestICOUNTPrefersLeastLoadedThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = ICOUNT
	r := newRig(t, cfg, nops(), nops())
	// Pre-load thread 0's frontend so ICOUNT must prefer thread 1.
	t0 := r.cpu.threads[0]
	for i := 0; i < 20; i++ {
		t0.frontend = append(t0.frontend, feEntry{readyAt: 1 << 30})
	}
	order := r.cpu.fetchOrder(0)
	if len(order) != 2 || order[0].id != 1 {
		t.Fatalf("ICOUNT order = %v, want thread 1 first", ids(order))
	}
}

func TestFetchStallExcludesL2MissThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = FetchStall
	r := newRig(t, cfg, nops(), nops())
	// Fake a long-outstanding load on thread 0.
	t0 := r.cpu.threads[0]
	u := &t0.rob[0]
	*u = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: 0, doneAt: pendingDone}
	t0.inFlight = append(t0.inFlight, u)
	now := uint64(100) // way past the L2 threshold
	order := r.cpu.fetchOrder(now)
	if len(order) != 1 || order[0].id != 1 {
		t.Fatalf("FetchStall order = %v, want only thread 1", ids(order))
	}
	// If every thread has an L2 miss, one must stay eligible.
	t1 := r.cpu.threads[1]
	v := &t1.rob[0]
	*v = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: 0, doneAt: pendingDone}
	t1.inFlight = append(t1.inFlight, v)
	order = r.cpu.fetchOrder(now)
	if len(order) != 1 {
		t.Fatalf("FetchStall with all threads missing kept %d threads, want 1", len(order))
	}
}

func TestDGExcludesAllMissThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DG
	r := newRig(t, cfg, nops(), nops())
	for _, th := range r.cpu.threads {
		u := &th.rob[0]
		*u = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: 0, doneAt: pendingDone}
		th.inFlight = append(th.inFlight, u)
	}
	if order := r.cpu.fetchOrder(50); len(order) != 0 {
		t.Fatalf("DG kept %d threads with outstanding data misses, want 0", len(order))
	}
}

func TestDWarnDemotesButKeepsMissThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWarn
	r := newRig(t, cfg, nops(), nops())
	t0 := r.cpu.threads[0]
	u := &t0.rob[0]
	*u = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: 0, doneAt: pendingDone}
	t0.inFlight = append(t0.inFlight, u)
	order := r.cpu.fetchOrder(50)
	if len(order) != 2 {
		t.Fatalf("DWarn dropped a thread: %v", ids(order))
	}
	if order[0].id != 1 || order[1].id != 0 {
		t.Fatalf("DWarn order = %v, want miss-free thread first", ids(order))
	}
}

func TestRoundRobinRotates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = RoundRobin
	r := newRig(t, cfg, nops(), nops(), nops())
	first := r.cpu.fetchOrder(0)[0].id
	second := r.cpu.fetchOrder(0)[0].id
	if first == second {
		t.Fatalf("round-robin did not rotate: %d then %d", first, second)
	}
}

func TestParseFetchPolicy(t *testing.T) {
	for _, p := range append(FetchPolicies(), RoundRobin) {
		got, err := ParseFetchPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFetchPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFetchPolicy("bogus"); err == nil {
		t.Fatal("ParseFetchPolicy accepted bogus")
	}
	if FetchPolicy(77).String() == "" {
		t.Fatal("unknown policy must print")
	}
}

func TestTargetAndAllFinished(t *testing.T) {
	r := newRig(t, DefaultConfig(), nops(), nops())
	r.cpu.SetTarget(0, 100)
	if r.cpu.AllFinished() {
		t.Fatal("AllFinished before running")
	}
	r.run(2000)
	if !r.cpu.AllFinished() {
		t.Fatalf("threads did not finish: %d, %d committed", r.cpu.Committed(0), r.cpu.Committed(1))
	}
	if r.cpu.FinishedAt(0) == 0 || r.cpu.FinishedAt(1) == 0 {
		t.Fatal("finish cycles not recorded")
	}
}

func TestRealWorkloadRuns(t *testing.T) {
	app, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGen(app, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A realistic L1D (gzip's hot pool fits) over a 30-cycle lower level.
	r := &rig{t: t}
	r.low = cache.NewFixedLatency(&r.q, 30)
	r.l1i, err = cache.New(&r.q, cache.Config{Name: "L1I", Latency: 1, Perfect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.l1d, err = cache.New(&r.q, cache.Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	r.cpu, err = New(&r.q, DefaultConfig(), []Source{g}, r.l1i, r.l1d)
	if err != nil {
		t.Fatal(err)
	}
	r.run(20000)
	if r.cpu.Committed(0) < 15000 {
		t.Fatalf("gzip model committed only %d in 20k cycles (IPC %.2f)",
			r.cpu.Committed(0), float64(r.cpu.Committed(0))/20000)
	}
}

// Property-ish: under any mix of squashes and misses, committed never
// exceeds fetched-and-dispatched, the IQ occupancy counters never go
// negative, and the pipeline drains to a consistent state.
func TestInvariantCountersStayConsistent(t *testing.T) {
	app, _ := workload.ByName("mcf")
	g, _ := workload.NewGen(app, 0, 3)
	r := newRig(t, DefaultConfig(), g)
	for c := uint64(1); c <= 30000; c++ {
		r.step(c)
		if r.cpu.intIQUsed < 0 || r.cpu.fpIQUsed < 0 || r.cpu.lqUsed < 0 || r.cpu.sqUsed < 0 {
			t.Fatalf("cycle %d: negative resource counter (%d,%d,%d,%d)",
				c, r.cpu.intIQUsed, r.cpu.fpIQUsed, r.cpu.lqUsed, r.cpu.sqUsed)
		}
		if r.cpu.intIQUsed > r.cpu.cfg.IntIQ || r.cpu.fpIQUsed > r.cpu.cfg.FPIQ {
			t.Fatalf("cycle %d: IQ overflow (%d/%d int, %d/%d fp)",
				c, r.cpu.intIQUsed, r.cpu.cfg.IntIQ, r.cpu.fpIQUsed, r.cpu.cfg.FPIQ)
		}
	}
	if r.cpu.Committed(0) == 0 {
		t.Fatal("mcf made no progress")
	}
}

func ids(ts []*thread) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.id
	}
	return out
}
