// Command smtdram runs one SMT + DRAM simulation described by flags and
// prints the measurements: per-thread IPC, memory traffic, row-buffer
// behaviour, and the concurrency distributions.
//
// Examples:
//
//	smtdram -mix 4-MEM
//	smtdram -apps mcf,ammp -channels 8 -gang 2 -policy request-based
//	smtdram -apps swim -dram rdram -scheme page -pagemode close
//	smtdram -mix 4-MEM -breakdown      # + per-app CPI attribution, parallel
//	smtdram -dump-config
//
// Exit status 2 means the invocation is wrong — an unknown flag, name or
// fault clause, a machine that fails validation; nothing was simulated — and
// 1 that the simulation or writing its output failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/runner"
	"smtdram/internal/server"
)

func main() {
	var (
		mix      = flag.String("mix", "", "Table 2 mix name (e.g. 4-MEM); overrides -apps")
		apps     = flag.String("apps", "mcf,ammp", "comma-separated application list, one per thread")
		channels = flag.Int("channels", 2, "physical memory channels (2/4/8)")
		gang     = flag.Int("gang", 1, "physical channels per logical channel")
		dramKind = flag.String("dram", "ddr", "DRAM technology: ddr or rdram")
		scheme   = flag.String("scheme", "xor", "address mapping: page or xor")
		pagemode = flag.String("pagemode", "open", "page mode: open or close")
		policy   = flag.String("policy", "hit-first", "scheduling: "+memctrl.PolicyNames())
		fetch    = flag.String("fetch", "dwarn", "fetch policy: "+cpu.FetchPolicyNames())
		warmup   = flag.Uint64("warmup", 100_000, "per-thread warmup instructions")
		target   = flag.Uint64("target", 200_000, "per-thread measured instructions")
		seed     = flag.Int64("seed", 42, "workload seed")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (used by -breakdown; 1 = sequential)")
		brkdown  = flag.Bool("breakdown", false, "also attribute each app's CPI (proc/L2/L3/mem) on this machine via the paper's four-run method")
		jsonOut  = flag.Bool("json", false, "print the result as JSON instead of the text report (byte-identical to the daemon's /result payload)")
		dump     = flag.Bool("dump-config", false, "print the Table 1 configuration and exit")

		faultSpec = flag.String("faults", "", "fault-injection plan, e.g. 'drop:rate=1e-3,seed=7;channel-fail:ch=1,at=2000000' (clauses: drop, channel-fail, seed)")

		traceOut = flag.String("trace", "", "write a request-lifecycle trace to this file (.jsonl = JSON lines, anything else = Chrome trace_event JSON for Perfetto)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}
	if *jobs < 1 {
		usageErr("-jobs must be at least 1")
	}
	if *target == 0 {
		usageErr("-target must be at least 1 instruction")
	}
	if *jsonOut && *brkdown {
		usageErr("-json and -breakdown are mutually exclusive")
	}

	if *dump {
		dumpConfig()
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	// The flags fill the same request the daemon accepts, and its resolver is
	// the only place names become a core.Config. Whatever it rejects — an
	// unknown name, a malformed -faults spec, a machine that fails validation
	// (say a fault plan naming a channel the machine lacks) — came from the
	// command line, so it is a usage error, caught before any simulation work.
	cfg, err := server.SimRequest{
		Mix: *mix, Apps: strings.Split(*apps, ","),
		Channels: *channels, Gang: *gang, DRAM: *dramKind, Scheme: *scheme, PageMode: *pagemode,
		Policy: *policy, Fetch: *fetch,
		Warmup: warmup, Target: target, Seed: seed, Faults: *faultSpec,
	}.Config()
	if err != nil {
		usageErr(err.Error())
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ob := &obs.Observer{Trace: tracer}
		cfg.Observe = func() *obs.Observer { return ob }
	}

	// The main run and the optional breakdown runs are independent, so they
	// all fan out on the pool; results are collected in submission order.
	pool := runner.New(*jobs)
	// The main run builds the simulator by hand (rather than core.Run) so the
	// two-speed clock's skip statistics survive into the report; the future's
	// Wait orders the write before the read.
	var skipStats obs.SkipStats
	runFut := runner.SubmitNamed(pool, cfg.Fingerprint(), func() (core.Result, error) {
		s, err := core.NewSimulator(cfg)
		if err != nil {
			return core.Result{}, err
		}
		res, err := s.Run()
		skipStats = s.SkipStats()
		return res, err
	})
	var bdJobs [][4]*runner.Future[float64]
	if *brkdown {
		bdJobs = make([][4]*runner.Future[float64], len(cfg.Apps))
		for i, app := range cfg.Apps {
			for k, c := range core.CPIBreakdownConfigs(cfg, app) {
				c.Observe = nil // the observer belongs to the main run only
				bdJobs[i][k] = runner.SubmitNamed(pool, c.Fingerprint(), func() (float64, error) {
					r, err := core.Run(c)
					if err != nil {
						return 0, err
					}
					return 1 / r.IPC[0], nil
				})
			}
		}
	}
	res, err := runFut.Wait()
	fatalIf(err)
	if *jsonOut {
		// The exact bytes the daemon serves from /v1/jobs/{id}/result: the
		// same core.Result through the same json.Marshal.
		b, err := json.Marshal(res)
		fatalIf(err)
		_, err = os.Stdout.Write(b)
		fatalIf(err)
	} else {
		report(cfg, res, skipStats)
	}
	if *brkdown {
		fmt.Printf("CPI attribution (four-run method, each app alone on this machine):\n")
		fmt.Printf("%-3s %-9s %10s %10s %10s %10s %10s\n", "t", "app", "CPIproc", "CPIL2", "CPIL3", "CPImem", "total")
		for i, app := range cfg.Apps {
			var cpi [4]float64
			for k := range bdJobs[i] {
				cpi[k], err = bdJobs[i][k].Wait()
				fatalIf(err)
			}
			b := core.NewBreakdown(cpi[0], cpi[1], cpi[2], cpi[3])
			fmt.Printf("%-3d %-9s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				i, app, b.Proc, b.L2, b.L3, b.Mem, b.Total())
		}
	}
	if tracer != nil {
		fatalIf(writeTrace(tracer, *traceOut))
		// With -json, stdout carries the result bytes alone.
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprintf(out, "trace: %d lifecycle events -> %s\n", tracer.Len(), *traceOut)
		m, err := cfg.Mem.TraceMachine()
		fatalIf(err)
		reportAttribution(out, obs.Attribute(tracer.Events(), m))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		fatalIf(err)
		runtime.GC()
		fatalIf(pprof.WriteHeapProfile(f))
		fatalIf(f.Close())
	}
}

// writeTrace writes the run's lifecycle trace: JSON lines for a .jsonl path,
// Chrome trace_event JSON for anything else.
func writeTrace(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usageErr prints a usage message and exits non-zero (distinct from
// simulation failures, which exit 1).
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "smtdram:", msg)
	flag.Usage()
	os.Exit(2)
}

func report(cfg core.Config, res core.Result, st obs.SkipStats) {
	fmt.Printf("machine: %d threads, %dC-%dG %s, %v mapping, %v page, %v scheduling, %v fetch\n",
		len(cfg.Apps), cfg.Mem.PhysChannels, cfg.Mem.Gang, cfg.Mem.Kind,
		cfg.Mem.Scheme, cfg.Mem.PageMode, cfg.Mem.Policy, cfg.CPU.Policy)
	fmt.Printf("cycles: %d%s\n", res.Cycles, timedOut(res))
	if st.Skipped > 0 {
		fmt.Printf("clock: skipped %d of %d wall cycles (%.1f%%) in %d windows, longest %d\n",
			st.Skipped, st.Wall, 100*st.Rate(), st.Segments, st.Longest)
	}
	fmt.Printf("%-3s %-9s %10s %12s %10s %12s\n", "t", "app", "IPC", "committed", "squashes", "avg DRAM lat")
	for i, app := range res.Apps {
		lat := "-"
		if i < len(res.ThreadAvgReadLatency) && res.ThreadAvgReadLatency[i] > 0 {
			lat = fmt.Sprintf("%.0f", res.ThreadAvgReadLatency[i])
		}
		fmt.Printf("%-3d %-9s %10.3f %12d %10d %12s\n", i, app, res.IPC[i], res.Committed[i], res.Squashes[i], lat)
	}
	fmt.Printf("total IPC: %.3f\n", res.TotalIPC())
	fmt.Printf("memory: %d reads, %d writes, %.2f reads/100 instr, avg read latency %.0f cycles\n",
		res.MemReads, res.MemWrites, res.MemReadsPer100Inst, res.AvgReadLatency)
	fmt.Printf("row buffer: %.1f%% miss (%d hits, %d closed, %d conflicts)\n",
		100*res.RowBufferMissRate, res.RowHits, res.RowClosed, res.RowConflicts)
	if f := res.Faults; f != nil {
		fmt.Printf("faults: %d drops, %d retried, %d gave up\n", f.Drops, f.Retries, f.RetryGiveUps)
		if rep := res.Failover; rep != nil {
			fmt.Printf("failover: channel %d failed at cycle %d, %d queued requests migrated\n",
				rep.FailedChannel, rep.AtCycle, f.FailedOver)
			fmt.Printf("  IPC %.3f -> %.3f, avg read latency %.0f -> %.0f cycles\n",
				rep.PreIPC, rep.PostIPC, rep.PreAvgReadLat, rep.PostAvgReadLat)
		}
	}
	fmt.Printf("caches:\n")
	for _, c := range res.Caches {
		fmt.Printf("  %-4s %10d accesses, %9d misses (%.1f%%), %8d writebacks\n",
			c.Name, c.Accesses, c.Misses, 100*c.MissRate, c.Writebacks)
	}
	fmt.Printf("outstanding while busy:")
	for _, b := range core.Bucketize(res.OutstandingHist, []int{1, 4, 8, 16}) {
		fmt.Printf("  %s: %.1f%%", b.Label, 100*b.Frac)
	}
	fmt.Println()
}

// reportAttribution prints the trace's read-latency split per thread, in
// mean cycles per read, and the scheduler's choice counts.
func reportAttribution(w io.Writer, a obs.Attribution) {
	fmt.Fprintf(w, "DRAM read latency over the whole trace, mean cycles per read: queued while its bank served an\n")
	fmt.Fprintf(w, "older or a younger (overtaken) request, while the window was full, or with its bank free; then served\n")
	fmt.Fprintf(w, "%-3s %7s %8s %8s %9s %8s %8s %8s %8s %8s\n",
		"t", "reads", "latency", "older", "overtaken", "window", "bankfree", "prep", "buswait", "transfer")
	row := func(label string, n uint64, s obs.LatencySplit) {
		if n == 0 {
			return
		}
		per := func(v uint64) float64 { return float64(v) / float64(n) }
		fmt.Fprintf(w, "%-3s %7d %8.1f %8.1f %9.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n", label, n, per(s.Total()),
			per(s.Older), per(s.Overtaken), per(s.WindowFull), per(s.BankFree), per(s.Prep), per(s.BusWait), per(s.Transfer))
	}
	var all obs.ThreadReads
	for i, tr := range a.ByThread() {
		row(fmt.Sprint(i), tr.Reads, tr.Sum)
		all.Reads += tr.Reads
		all.Sum = all.Sum.Plus(tr.Sum)
	}
	row("all", all.Reads, all.Sum)
	if a.Unsplit > 0 {
		fmt.Fprintf(w, "not split: %d reads (in flight at the end, retried, or failed over)\n", a.Unsplit)
	}
	var dispatches uint64
	for _, n := range a.Choices {
		dispatches += n
	}
	if dispatches == 0 {
		return
	}
	const pooled = 8
	fmt.Fprintf(w, "choices at %d dispatches (queued requests with a free bank):", dispatches)
	for k := 0; k < len(a.Choices) && k <= pooled; k++ {
		n, label := a.Choices[k], fmt.Sprint(k)
		if k == pooled {
			label += "+"
			for _, m := range a.Choices[k+1:] {
				n += m
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "  %s: %.1f%%", label, 100*float64(n)/float64(dispatches))
		}
	}
	fmt.Fprintln(w)
	if a.ReadyReads > 0 {
		fmt.Fprintf(w, "oldest ready read dispatched at %d of %d dispatches with a read ready (%.1f%%)\n",
			a.OldestPicked, a.ReadyReads, 100*float64(a.OldestPicked)/float64(a.ReadyReads))
	}
}

func timedOut(res core.Result) string {
	if res.TimedOut {
		return " (TIMED OUT before all threads hit the target)"
	}
	return ""
}

func dumpConfig() {
	cfg := core.DefaultConfig("mcf")
	c := cfg.CPU
	fmt.Println("Table 1 simulator parameters (as configured):")
	fmt.Printf("  processor speed        3 GHz (all latencies in CPU cycles)\n")
	fmt.Printf("  fetch width            %d instructions, up to %d threads/cycle\n", c.FetchWidth, c.FetchMaxThreads)
	fmt.Printf("  baseline fetch policy  %v\n", c.Policy)
	fmt.Printf("  front-end depth        %d cycles\n", c.FrontendDelay)
	fmt.Printf("  functional units       %d IntALU, %d IntMult, %d FPALU, %d FPMult\n", c.IntALU, c.IntMult, c.FPALU, c.FPMult)
	fmt.Printf("  issue width            %d Int, %d FP\n", c.IntIssueWidth, c.FPIssueWidth)
	fmt.Printf("  issue queue size       %d Int, %d FP\n", c.IntIQ, c.FPIQ)
	fmt.Printf("  reorder buffer         %d/thread\n", c.ROBPerThread)
	fmt.Printf("  load/store queues      %d LQ, %d SQ\n", c.LQ, c.SQ)
	fmt.Printf("  mispredict penalty     %d cycles\n", c.MispredictPenalty)
	fmt.Printf("  L1 caches              %dKB I / %dKB D, %d-way, %dB lines, %d-cycle\n",
		cfg.L1I.SizeBytes>>10, cfg.L1D.SizeBytes>>10, cfg.L1D.Assoc, cfg.L1D.LineBytes, cfg.L1D.Latency)
	fmt.Printf("  L2 cache               %dKB, %d-way, %d-cycle\n", cfg.L2.SizeBytes>>10, cfg.L2.Assoc, cfg.L2.Latency)
	fmt.Printf("  L3 cache               %dMB, %d-way, %d-cycle\n", cfg.L3.SizeBytes>>20, cfg.L3.Assoc, cfg.L3.Latency)
	fmt.Printf("  MSHRs                  %d/cache\n", cfg.L1D.MSHRs)
	fmt.Printf("  memory channels        %d (gang %d), %v\n", cfg.Mem.PhysChannels, cfg.Mem.Gang, cfg.Mem.Kind)
	params, _ := cfg.Mem.Params()
	fmt.Printf("  DRAM timing            tRCD=%d CL=%d tRP=%d burst=%d cycles (15ns/15ns/15ns at 3GHz)\n",
		params.TRCD, params.CL, params.TRP, params.Burst)
	fmt.Printf("  mapping / page mode    %v / %v\n", cfg.Mem.Scheme, cfg.Mem.PageMode)
	fmt.Printf("  scheduling policy      %v\n", cfg.Mem.Policy)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtdram:", err)
		os.Exit(1)
	}
}
