// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all                 # everything, one worker per core
//	experiments -fig 10                  # one figure
//	experiments -fig 2 -target 200000    # longer measurement window
//	experiments -fig all -jobs 1         # sequential (same output, slower)
//	experiments -fig 6,10 -format csv    # a comma-separated subset, as CSV
//
// Valid -fig values are the names in figures.Catalog — `experiments -h`
// prints them — plus "all". Exit status 2 means the invocation is wrong (a bad
// flag value, a zero -warmup, -target or -seed, a figure name the catalog
// lacks; nothing is simulated and nothing is written to stdout), 1 that a
// simulation or a write failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/figures"
	"smtdram/internal/obs"
	"smtdram/internal/store"
)

func main() {
	opts := figures.Options{Format: "text", Baselines: map[string]float64{}}
	flag.Var(&opts.Format, "format", "output `format`: text, csv, md")
	flag.Uint64Var(&opts.Warmup, "warmup", 100_000, "per-thread warmup instructions")
	flag.Uint64Var(&opts.Target, "target", 100_000, "per-thread measured instructions")
	flag.Int64Var(&opts.Seed, "seed", 42, "workload seed")
	flag.IntVar(&opts.Jobs, "jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = sequential; output is identical for any value)")
	var (
		fig     = flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(figNames(), ", ")+", or all")
		verbose = flag.Bool("v", false, "print per-run progress")

		checkpointDir = flag.String("checkpoint-dir", "", "persist warmup checkpoints under this directory and fork warm re-runs from them (figure output stays byte-identical)")

		traceDir = flag.String("trace", "", "write one Chrome trace_event JSON per simulation run into this directory")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile covering all runs to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}
	if opts.Jobs < 1 {
		usageErr("-jobs must be at least 1")
	}
	// The figures read a zero count or seed as "use the default", so a 0
	// here would silently run something other than what was asked for.
	if opts.Warmup == 0 {
		usageErr("-warmup must be at least 1 instruction")
	}
	if opts.Target == 0 {
		usageErr("-target must be at least 1 instruction")
	}
	if opts.Seed == 0 {
		usageErr("-seed must be nonzero")
	}
	// Every name is checked before anything runs, so a typo in a sweep script
	// is a red exit and an empty file, not a silently shorter one.
	want := map[string]bool{}
	for _, name := range strings.Split(*fig, ",") {
		name = strings.TrimSpace(name)
		if _, err := figures.ByName(name); err != nil && name != "all" {
			usageErr(err.Error() + `, or "all"`)
		}
		want[name] = true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	if *verbose {
		opts.Out = os.Stderr
	}

	// One checkpoint cache spans every figure of this invocation, so a warmup
	// prefix shared between figures (the reference machine appears in most of
	// them) simulates once. -checkpoint-dir extends the reuse across
	// invocations; stdout is byte-identical either way, and the summary goes
	// to stderr so warm and cold runs still diff clean.
	opts.Checkpoints = checkpoint.New()
	if *checkpointDir != "" {
		c, err := checkpoint.Open(*checkpointDir, store.FsyncOff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.Checkpoints = c
	}
	defer func() {
		s := opts.Checkpoints.Snapshot()
		fmt.Fprintf(os.Stderr, "checkpoints: hits=%d misses=%d forks=%d bypassed=%d evictions=%d entries=%d\n",
			s.Hits, s.Misses, s.Forks, s.Bypassed, s.Evictions, s.Entries)
	}()
	opts.Configure = traceConfigurer(*traceDir)

	for _, f := range figures.Catalog() {
		if !want["all"] && !want[f.Name] {
			continue
		}
		start := time.Now()
		if err := f.Write(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		// Wall-clock timing is diagnostic and varies with -jobs; keep it on
		// stderr so stdout stays byte-identical at any job count.
		fmt.Fprintf(os.Stderr, "  [%s in %s]\n\n", f.Name, time.Since(start).Truncate(time.Millisecond))
	}
}

// figNames lists the catalog's names for the usage text.
func figNames() []string {
	var names []string
	for _, f := range figures.Catalog() {
		names = append(names, f.Name)
	}
	return names
}

// usageErr reports a wrong invocation: the message and the usage on stderr,
// exit status 2, nothing on stdout.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "experiments:", msg)
	flag.Usage()
	os.Exit(2)
}

// traceConfigurer builds the Options.Configure hook that attaches a fresh
// tracer to every simulation a figure runs and writes each run's Chrome trace
// into traceDir as the run finishes. Returns nil when no directory is given.
//
// The Observe/OnFinish hooks fire on worker goroutines, concurrently when
// -jobs > 1, so the run counter is atomic; run numbering follows start order,
// which is submission order, and so deterministic, at -jobs 1.
func traceConfigurer(traceDir string) func(*core.Config) {
	if traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	var runN atomic.Int64
	return func(cfg *core.Config) {
		apps := strings.Join(cfg.Apps, "+")
		cfg.Observe = func() *obs.Observer {
			label := fmt.Sprintf("run%04d-%s", runN.Add(1), apps)
			return &obs.Observer{Trace: obs.NewTracer(), OnFinish: func(ob *obs.Observer) {
				path := traceDir + string(os.PathSeparator) + label + ".json"
				f, err := os.Create(path)
				if err == nil {
					err = ob.Trace.WriteChrome(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments: trace:", err)
				}
			}}
		}
	}
}
