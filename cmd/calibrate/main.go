// Command calibrate characterizes every synthetic SPEC CPU2000 application
// model on the paper's reference machine: CPI, DRAM reads per 100
// instructions, cache miss rates, and row-buffer behaviour, sorted by memory
// intensity. This is the table the workload models in internal/workload were
// tuned against (see DESIGN.md §2); rerun it after any model change.
//
// Usage:
//
//	calibrate                 # all 26 applications
//	calibrate mcf swim gzip   # a subset
//	calibrate -format csv     # machine-readable
//
// Exit status 2 means the invocation is wrong (a bad flag value or an
// application name the models lack; nothing is simulated and nothing is
// written to stdout), 1 that a simulation or a write failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"smtdram/internal/core"
	"smtdram/internal/figures"
	"smtdram/internal/workload"
)

func main() {
	format := figures.Format("text")
	flag.Var(&format, "format", "output `format`: text, csv, md")
	var (
		warmup = flag.Uint64("warmup", 100_000, "per-thread warmup instructions")
		target = flag.Uint64("target", 150_000, "per-thread measured instructions")
		seed   = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = workload.Names()
	}
	// Every name is resolved before anything runs.
	apps := make([]workload.App, len(names))
	for i, name := range names {
		app, err := workload.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			flag.Usage()
			os.Exit(2)
		}
		apps[i] = app
	}

	g := figures.Grid{Title: "Application characterization (reference machine, sorted by DRAM intensity)",
		Columns: []string{"app", "IPC", "CPI", "memReads/100", "rowMiss", "L1D miss", "L2 miss"}}
	for i, name := range names {
		cfg := core.DefaultConfig(name)
		cfg.WarmupInstr, cfg.TargetInstr, cfg.Seed = *warmup, *target, *seed
		res, err := core.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		g.Rows = append(g.Rows, figures.Row{Label: fmt.Sprintf("%s (%s)", name, apps[i].Class),
			Values: []float64{res.IPC[0], 1 / res.IPC[0], res.MemReadsPer100Inst, res.RowBufferMissRate,
				res.Caches[1].MissRate, res.Caches[2].MissRate}})
		fmt.Fprintf(os.Stderr, "  %s done\n", name)
	}
	sort.Slice(g.Rows, func(i, j int) bool { return g.Rows[i].Values[2] < g.Rows[j].Values[2] })
	if err := g.Render(os.Stdout, format); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
