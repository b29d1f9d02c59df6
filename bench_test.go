package smtdram

// The benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its figure at a reduced per-thread instruction
// budget (the -short sizes) and reports the headline number as a custom
// metric, so regressions in the reproduced *shape* show up as metric drift.
// cmd/experiments prints the full tables at publication sizes.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/figures"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// benchOpts is the reduced experiment size used by the benchmarks.
func benchOpts() figures.Options {
	return figures.Options{
		Warmup:    60_000,
		Target:    40_000,
		Seed:      42,
		Baselines: map[string]float64{},
	}
}

// benchCfg is a reduced single-run config.
func benchCfg(apps ...string) core.Config {
	cfg := core.DefaultConfig(apps...)
	cfg.WarmupInstr = 60_000
	cfg.TargetInstr = 40_000
	return cfg
}

// BenchmarkTable2Machine measures the simulator itself: cycles/sec simulating
// the Table 1 machine on the 2-MEM mix (Table 2's smallest MEM workload).
func BenchmarkTable2Machine(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(benchCfg("mcf", "ammp"))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/run")
}

// benchMEMMix runs the two-speed clock's best case: a 4-thread all-MEM mix
// (four copies of mcf, the most memory-bound app) on the paper's most
// conservative memory system — all four channels ganged into one logical
// channel, close-page, FCFS, a shallow queue, and a serialized in-flight
// window — under the fetch-stall frontend policy. Every thread stalls on the
// single serialized DRAM pipe together, so almost every cycle falls inside a
// quiescent window. The clock skip runs enabled or disabled, reporting the
// skip rate alongside the deterministic cycle count.
func benchMEMMixCfg() core.Config {
	cfg := benchCfg("mcf", "mcf", "mcf", "mcf")
	cfg.Mem.PhysChannels = 4
	cfg.Mem.Gang = 4
	cfg.Mem.PageMode = dram.ClosePage
	cfg.Mem.Policy = memctrl.FCFS
	cfg.Mem.QueueDepth = 8
	cfg.Mem.MaxInFlight = 1
	cfg.CPU.Policy = cpu.FetchStall
	return cfg
}

func benchMEMMix(b *testing.B, disableSkip, observed bool) {
	b.ReportAllocs()
	var cycles, skipped, windows, wall uint64
	for i := 0; i < b.N; i++ {
		cfg := benchMEMMixCfg()
		cfg.DisableClockSkip = disableSkip
		if observed {
			// A daemon-style progress observer: the cheapest real observer the
			// serving path attaches to every job. It must not constrain the
			// two-speed clock (no registry, so no sample boundaries).
			ob := &obs.Observer{Progress: func(uint64) {}, ProgressInterval: 10_000}
			cfg.Observe = func() *obs.Observer { return ob }
		}
		s, err := core.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		skipped += s.SkipStats().Skipped
		windows += s.SkipStats().Segments
		wall += s.SkipStats().Wall
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/run")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/run")
	b.ReportMetric(float64(windows)/float64(b.N), "windows/run")
	b.ReportMetric(float64(skipped)/float64(wall), "skiprate")
}

// BenchmarkRunMEMMix measures the two-speed clock on its target workload; the
// NoSkip variant is the every-cycle baseline and the Observed variant attaches
// the serving daemon's progress observer. simcycles/run must be identical
// across all three (the skip is byte-equivalent by construction), the
// Observed skiprate must match the bare one (observers ride the deep path,
// they don't disable it). TestPinnedCounts pins all of that; wall-clock
// numbers live in the cmd/bench ledger (mem8, core.noskip_ratio).
func BenchmarkRunMEMMix(b *testing.B)         { benchMEMMix(b, false, false) }
func BenchmarkRunMEMMixNoSkip(b *testing.B)   { benchMEMMix(b, true, false) }
func BenchmarkRunMEMMixObserved(b *testing.B) { benchMEMMix(b, false, true) }

// TestPinnedCounts runs the hot-path benchmarks above and gates what is
// deterministic in them. The simulation is, so simcycles/run is exact: 225974
// on the Table 2 machine, 968233 on the MEM mix at either clock speed and with
// an observer attached. So is when spans open: the skipped-cycle and window
// counts are exact too (0.8356 of the run, warmup included), equal with and
// without the observer — a move means a ProbeQuiet bound changed, e.g. gate
// reporting a flip that cannot change its verdict ends spans early at
// unchanged Results.
// B/op is deterministic to within a few percent, so it carries ceilings about
// 10% over what is measured (0.45 and 0.53 MB, 0.31 MB of it cache lines in
// 4- and 5-byte words; 0.48 and 0.59 MB while a squash copied its suffix into
// a replay buffer, 0.75 and 0.86 MB with 8-byte lines, 0.96 and 1.14 MB
// while event buckets and replay buffers grew by
// doubling, 1.57 and 1.75 MB while a line carried an LRU stamp, and 23.4 and
// 69.5 before the replay and in-flight-load deques stopped re-slicing their
// capacity away, which is the regression the ceilings exist to catch).
func TestPinnedCounts(t *testing.T) {
	const memMixSkipped, memMixWindows = 2322582, 45835
	for _, tc := range []struct {
		name                     string
		bench                    func(*testing.B)
		cycles, skipped, windows float64
		maxBytes                 int64
	}{
		{"Table2Machine", BenchmarkTable2Machine, 225974, 0, 0, 500_000},
		{"RunMEMMix", BenchmarkRunMEMMix, 968233, memMixSkipped, memMixWindows, 585_000},
		{"RunMEMMixNoSkip", BenchmarkRunMEMMixNoSkip, 968233, 0, 0, 585_000},
		{"RunMEMMixObserved", BenchmarkRunMEMMixObserved, 968233, memMixSkipped, memMixWindows, 585_000},
	} {
		r := testing.Benchmark(tc.bench)
		if r.N == 0 {
			t.Fatalf("%s: the benchmark failed", tc.name)
		}
		for unit, want := range map[string]float64{
			"simcycles/run": tc.cycles, "skipped/run": tc.skipped, "windows/run": tc.windows,
		} {
			if got := r.Extra[unit]; got != want {
				t.Errorf("%s: %v %s, pinned %v", tc.name, got, unit, want)
			}
		}
		if got := r.AllocedBytesPerOp(); got > tc.maxBytes {
			t.Errorf("%s: %d B/op, ceiling %d", tc.name, got, tc.maxBytes)
		}
	}
}

// BenchmarkParallelFigures measures the parallel experiment scheduler on a
// figure-sized sweep (Figure 6: 9 mixes × 3 channel counts plus the shared
// alone-IPC baselines). The jobs=1 case is the sequential path (one worker
// goroutine runs the jobs in submission order); jobs=GOMAXPROCS fans the independent runs out
// across workers. Output is byte-identical either way — the speedup is pure
// wall clock, so on a single-core host the two cases coincide.
func BenchmarkParallelFigures(b *testing.B) {
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOpts()
				o.Warmup, o.Target = 10_000, 10_000
				o.Jobs = jobs
				runFig6(b, o)
			}
		})
	}
}

// benchFig6Checkpointed runs the standard Figure 6 sweep (9 mixes × 3 channel
// counts plus the alone-IPC baselines) at the benchmark sizes, optionally
// through a warmup-checkpoint cache. The Baselines map is fresh per call so
// the pair below isolates warmup memoization from baseline-IPC memoization.
func benchFig6Checkpointed(b *testing.B, ckpts *checkpoint.Cache) figures.Grid {
	b.Helper()
	return runFig6(b, figures.Options{Warmup: 60_000, Target: 40_000, Seed: 42,
		Jobs: runtime.GOMAXPROCS(0), Baselines: map[string]float64{}, Checkpoints: ckpts})
}

// runFig6 regenerates Figure 6 from the catalog.
func runFig6(b *testing.B, o figures.Options) figures.Grid {
	b.Helper()
	fig, err := figures.ByName("6")
	if err != nil {
		b.Fatal(err)
	}
	g, err := fig.Run(o)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkParallelFiguresUncheckpointed is the cold baseline for the
// checkpointed variant below: every sweep point simulates its full warmup.
func BenchmarkParallelFiguresUncheckpointed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig6Checkpointed(b, nil)
	}
}

// BenchmarkParallelFiguresCheckpointed measures the warmup-memoization layer
// (DESIGN §15) on the same sweep: the cache is prewarmed once outside the
// timer, so every timed iteration forks each sweep point from its cached
// warmup-boundary machine state and simulates only the measurement phase.
// With the benchmark's 60k-warmup/40k-target split, skipping warmup bounds
// the ideal speedup at 2.5x; the CI checkpoint-smoke step gates the measured
// ratio over the uncheckpointed baseline at >= 1.5x (the cmd/bench ledger's
// fig10_sweep workload measures the same path). Every iteration's rows are asserted identical to a plainly
// computed golden — the cache may only change wall-clock time — and the
// warm-phase hit ratio is reported as a metric (and gated nonzero in CI).
func BenchmarkParallelFiguresCheckpointed(b *testing.B) {
	golden := benchFig6Checkpointed(b, nil)
	ckpts := checkpoint.New()
	if prewarm := benchFig6Checkpointed(b, ckpts); !reflect.DeepEqual(golden, prewarm) {
		b.Fatalf("checkpointed sweep diverged from the plain sweep\nplain: %+v\nckpt:  %+v", golden, prewarm)
	}
	warmStart := ckpts.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := benchFig6Checkpointed(b, ckpts)
		if !reflect.DeepEqual(golden, rows) {
			b.Fatalf("iteration %d diverged from the plain sweep", i)
		}
	}
	b.StopTimer()
	st := ckpts.Snapshot()
	hits := st.Hits - warmStart.Hits
	misses := st.Misses - warmStart.Misses
	if lookups := hits + misses; lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "ckpt-hitratio")
	}
}

// BenchmarkObsDisabled is the no-tracer baseline for BenchmarkObsEnabled:
// identical machine and mix, observability left nil. The pair measures the
// one-pointer-check cost of the disabled instrumentation against
// BenchmarkTable2Machine's historical numbers, and the tracer's overhead
// against this baseline.
func BenchmarkObsDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(benchCfg("mcf", "ammp")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabled runs the same machine with a lifecycle tracer attached.
func BenchmarkObsEnabled(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("mcf", "ammp")
		ob := &Observer{Trace: NewTracer()}
		cfg.Observe = func() *Observer { return ob }
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
		events += ob.Trace.Len()
	}
	b.ReportMetric(float64(events)/float64(b.N), "traceevents/run")
}

// BenchmarkFig1CPIBreakdown regenerates the CPI breakdown for the extremes of
// Figure 1 (the full 26-app sweep lives in cmd/experiments -fig 1).
func BenchmarkFig1CPIBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"gzip", "mcf"} {
			bd, err := core.CPIBreakdown(benchCfg(app), app)
			if err != nil {
				b.Fatal(err)
			}
			if app == "mcf" {
				b.ReportMetric(bd.Mem, "mcf-CPImem")
			} else {
				b.ReportMetric(bd.Mem, "gzip-CPImem")
			}
		}
	}
}

// BenchmarkFig2FetchPolicies compares ICOUNT and DWarn on 8-MIX — the
// workload where the paper's separation is widest.
func BenchmarkFig2FetchPolicies(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		var ws [2]float64
		for j, pol := range []cpu.FetchPolicy{cpu.ICOUNT, cpu.DWarn} {
			cfg := benchCfg("gzip", "mcf", "bzip2", "ammp", "sixtrack", "swim", "eon", "lucas")
			cfg.CPU.Policy = pol
			v, _, err := optsWS(o, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ws[j] = v
		}
		b.ReportMetric(ws[1]/ws[0], "dwarn/icount-WS")
	}
}

// BenchmarkFig3MemoryLoss measures the 8-MEM performance retained versus an
// infinite L3 under DWarn.
func BenchmarkFig3MemoryLoss(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		real := benchCfg("mcf", "ammp", "swim", "lucas")
		realWS, _, err := optsWS(o, real)
		if err != nil {
			b.Fatal(err)
		}
		ref := benchCfg("mcf", "ammp", "swim", "lucas")
		ref.PerfectL3 = true
		refWS, _, err := optsWS(o, ref)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(realWS/refWS, "retained-vs-infL3")
	}
}

// BenchmarkFig4Concurrency measures the probability of >8 outstanding
// requests on 4-MEM while the DRAM system is busy.
func BenchmarkFig4Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Run(benchCfg("mcf", "ammp", "swim", "lucas"))
		if err != nil {
			b.Fatal(err)
		}
		var busy, tail uint64
		for k := 1; k < len(res.OutstandingHist); k++ {
			busy += res.OutstandingHist[k]
			if k > 8 {
				tail += res.OutstandingHist[k]
			}
		}
		b.ReportMetric(float64(tail)/float64(busy), "P(>8|busy)")
	}
}

// BenchmarkFig5ThreadSpread measures how often 4-MEM's concurrent requests
// come from all four threads.
func BenchmarkFig5ThreadSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Run(benchCfg("mcf", "ammp", "swim", "lucas"))
		if err != nil {
			b.Fatal(err)
		}
		var total uint64
		for _, v := range res.ThreadSpreadHist {
			total += v
		}
		b.ReportMetric(float64(res.ThreadSpreadHist[4])/float64(total), "P(all-4-threads)")
	}
}

// BenchmarkFig6Channels measures the 4-MEM speedup from quadrupling channels.
func BenchmarkFig6Channels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r2, err := core.Run(benchCfg("mcf", "ammp", "swim", "lucas"))
		if err != nil {
			b.Fatal(err)
		}
		c8 := benchCfg("mcf", "ammp", "swim", "lucas")
		c8.Mem.PhysChannels = 8
		r8, err := core.Run(c8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r8.TotalIPC()/r2.TotalIPC(), "8ch/2ch-IPC")
	}
}

// BenchmarkFig7Ganging measures 8C-1G over 8C-4G on 4-MEM — the paper's
// headline "independent channels may outperform ganged by up to 90%".
func BenchmarkFig7Ganging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		indep := benchCfg("mcf", "ammp", "swim", "lucas")
		indep.Mem.PhysChannels = 8
		ri, err := core.Run(indep)
		if err != nil {
			b.Fatal(err)
		}
		ganged := benchCfg("mcf", "ammp", "swim", "lucas")
		ganged.Mem.PhysChannels = 8
		ganged.Mem.Gang = 4
		rg, err := core.Run(ganged)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ri.TotalIPC()/rg.TotalIPC(), "8C1G/8C4G-IPC")
	}
}

// BenchmarkFig8MappingDDR measures the page→XOR row-buffer miss reduction on
// the 2-channel DDR system, 4-MEM.
func BenchmarkFig8MappingDDR(b *testing.B) {
	benchMapping(b, core.DDR)
}

// BenchmarkFig9MappingRDRAM measures the same on Direct Rambus, where the
// paper finds the XOR scheme far more effective (many more banks).
func BenchmarkFig9MappingRDRAM(b *testing.B) {
	benchMapping(b, core.RDRAM)
}

func benchMapping(b *testing.B, kind core.DRAMKind) {
	for i := 0; i < b.N; i++ {
		page := benchCfg("mcf", "ammp", "swim", "lucas")
		page.Mem.Kind = kind
		page.Mem.Scheme = PageMapping
		rp, err := core.Run(page)
		if err != nil {
			b.Fatal(err)
		}
		xor := benchCfg("mcf", "ammp", "swim", "lucas")
		xor.Mem.Kind = kind
		xor.Mem.Scheme = XORMapping
		rx, err := core.Run(xor)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rp.RowBufferMissRate, "page-miss")
		b.ReportMetric(rx.RowBufferMissRate, "xor-miss")
	}
}

// BenchmarkFig10Scheduling measures the thread-aware request-based scheme
// against FCFS on 4-MEM.
func BenchmarkFig10Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fc := benchCfg("mcf", "ammp", "swim", "lucas")
		fc.Mem.Policy = memctrl.FCFS
		rf, err := core.Run(fc)
		if err != nil {
			b.Fatal(err)
		}
		rb := benchCfg("mcf", "ammp", "swim", "lucas")
		rb.Mem.Policy = memctrl.RequestBased
		rr, err := core.Run(rb)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rr.TotalIPC()/rf.TotalIPC(), "reqbased/fcfs-IPC")
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationPageMode compares open vs close page on a streaming MEM
// mix (open page should win: the streams hit the row buffers).
func BenchmarkAblationPageMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		open := benchCfg("swim", "lucas")
		open.Mem.PageMode = dram.OpenPage
		ro, err := core.Run(open)
		if err != nil {
			b.Fatal(err)
		}
		closed := benchCfg("swim", "lucas")
		closed.Mem.PageMode = dram.ClosePage
		rc, err := core.Run(closed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ro.TotalIPC()/rc.TotalIPC(), "open/close-IPC")
	}
}

// BenchmarkAblationMSHR throttles memory-level parallelism by shrinking the
// MSHRs from 16 to 4.
func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := benchCfg("mcf", "ammp")
		rf, err := core.Run(full)
		if err != nil {
			b.Fatal(err)
		}
		small := benchCfg("mcf", "ammp")
		for _, c := range []*struct{ MSHRs *int }{
			{&small.L1D.MSHRs}, {&small.L1I.MSHRs}, {&small.L2.MSHRs}, {&small.L3.MSHRs},
		} {
			*c.MSHRs = 4
		}
		rs, err := core.Run(small)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rf.TotalIPC()/rs.TotalIPC(), "mshr16/mshr4-IPC")
	}
}

// BenchmarkAblationQueueDepth shrinks the per-channel controller queue from
// 64 to 8, reducing the scheduler's reordering window.
func BenchmarkAblationQueueDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		deep := benchCfg("mcf", "ammp", "swim", "lucas")
		rd, err := core.Run(deep)
		if err != nil {
			b.Fatal(err)
		}
		shallow := benchCfg("mcf", "ammp", "swim", "lucas")
		shallow.Mem.QueueDepth = 8
		rs, err := core.Run(shallow)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rd.TotalIPC()/rs.TotalIPC(), "deep/shallow-IPC")
	}
}

// BenchmarkAblationPolicyOrder tests the paper's Section 3.2 claim that
// hit-first must rank above the thread-aware criterion.
func BenchmarkAblationPolicyOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper := benchCfg("mcf", "ammp", "swim", "lucas")
		paper.Mem.Policy = memctrl.RequestBased
		rp, err := core.Run(paper)
		if err != nil {
			b.Fatal(err)
		}
		inverted := benchCfg("mcf", "ammp", "swim", "lucas")
		inverted.Mem.Policy = memctrl.RequestBased
		inverted.Mem.ThreadAwareFirst = true
		ri, err := core.Run(inverted)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rp.TotalIPC()/ri.TotalIPC(), "hitfirst-above/below-IPC")
	}
}

// optsWS is a small helper around the figures package's baseline cache.
func optsWS(o figures.Options, cfg core.Config) (float64, core.Result, error) {
	return figures.WS(o, cfg)
}

// BenchmarkAblationRefresh measures the cost of realistic all-bank refresh
// (7.8 µs tREFI / 70 ns tRFC), which the paper's model omits.
func BenchmarkAblationRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ideal := benchCfg("mcf", "ammp")
		ri, err := core.Run(ideal)
		if err != nil {
			b.Fatal(err)
		}
		refreshed := benchCfg("mcf", "ammp")
		refreshed.Mem.Refresh = true
		rr, err := core.Run(refreshed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ri.TotalIPC()/rr.TotalIPC(), "ideal/refresh-IPC")
	}
}

// BenchmarkAblationTurnaround measures a 5 ns bus direction-switch penalty,
// the overhead write-buffer literature targets.
func BenchmarkAblationTurnaround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ideal := benchCfg("swim", "lucas")
		ri, err := core.Run(ideal)
		if err != nil {
			b.Fatal(err)
		}
		penalized := benchCfg("swim", "lucas")
		penalized.Mem.TurnaroundNS = 5
		rp, err := core.Run(penalized)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ri.TotalIPC()/rp.TotalIPC(), "ideal/turnaround-IPC")
	}
}

// BenchmarkCoopFetchPolicy measures the paper's future-work direction —
// fetch policy / memory scheduler cooperation — against plain DWarn on the
// clog-prone 8-MIX workload.
func BenchmarkCoopFetchPolicy(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		dwarn := benchCfg("gzip", "mcf", "bzip2", "ammp", "sixtrack", "swim", "eon", "lucas")
		dwarn.CPU.Policy = cpu.DWarn
		wd, _, err := optsWS(o, dwarn)
		if err != nil {
			b.Fatal(err)
		}
		coop := benchCfg("gzip", "mcf", "bzip2", "ammp", "sixtrack", "swim", "eon", "lucas")
		coop.CPU.Policy = cpu.Coop
		wc, _, err := optsWS(o, coop)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wc/wd, "coop/dwarn-WS")
	}
}
