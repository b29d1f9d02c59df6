// Command bench is the repository's performance ledger: five named workloads,
// seven end-to-end metrics measured with tracing off, and a traced run per
// workload that splits host time by layer. README.md in this directory
// defines every name; BENCHMARK.json at the repository root fixes the bounds.
//
//	go run ./cmd/bench                                  the whole ledger, once
//	go run ./cmd/bench -runs 10 -out a.json             ten seeds per workload
//	go run ./cmd/bench --workload mem8 --seed 3 --seconds 20 --trace 0
//	go run ./cmd/bench compare a.json b.json
//
// The --workload form is one run of one workload; its last line of output is
// the JSON object the benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all of them, as a ledger)")
		seed     = flag.Int64("seed", 1, "workload seed: becomes Config.Seed and drives request-pool generation")
		seconds  = flag.Float64("seconds", 20, "how long each run's timed phase lasts")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer ones")
		runs     = flag.Int("runs", 1, "ledger mode: timed runs per workload, on seeds seed..seed+runs-1")
		out      = flag.String("out", filepath.Join(outDir, "ledger.json"), "ledger mode: where the ledger is written")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *workload != "" {
		os.Exit(singleMain(*workload, *seed, budget, *trace == 1))
	}
	os.Exit(ledgerMain(*seed, budget, *runs, *out))
}

// runOne executes one run of one workload, timed or traced.
func runOne(name string, seed int64, budget time.Duration, traced bool, sz sizes) (*runRecord, error) {
	if !hasWorkload(name) {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	// Each run starts from a collected heap, as a fresh process would.
	runtime.GC()
	debug.FreeOSMemory()
	rec := newRecord(name, seed, budget.Seconds(), traced)
	start := time.Now()
	var err error
	switch {
	case name == "fig10_sweep" && traced:
		err = runSweepTraced(seed, sz, rec)
	case name == "fig10_sweep":
		err = runSweepTimed(seed, budget, sz, rec)
	case name == "serve_fleet" && traced:
		err = runServeTraced(seed, sz, rec)
	case name == "serve_fleet":
		err = runServeTimed(seed, budget, sz, rec)
	case traced:
		err = runSimTraced(name, seed, sz, rec)
	default:
		err = runSimTimed(name, seed, budget, sz, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return rec, rec.finish(start)
}

// writeOut writes v as indented JSON to name under outDir.
func writeOut(name string, v any) (string, error) {
	path := filepath.Join(outDir, name)
	return path, writeJSON(path, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRecord lists one run's metrics in declaration order.
func printRecord(rec *runRecord) {
	specs := endToEnd
	if rec.Traced {
		specs = perLayer
	}
	fmt.Printf("%s  seed %d  %s  %.1f s wall  %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.mode(), rec.WallS, rec.Attempted, rec.Failed)
	fmt.Printf("  %-36s %-12s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range specs {
		v := rec.Metrics[m.Name]
		fmt.Printf("  %-36s %-12s %14.6g %14.6g %14.6g %6d\n", m.Name, v.Unit, v.Value, v.Q1, v.Q3, v.N)
	}
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	if rec.TraceFile != "" {
		fmt.Printf("  trace: %s\n", rec.TraceFile)
	}
}

// singleMain is the driver's entry: one run, then one JSON object on the
// last line with exactly the keys the driver reads.
func singleMain(name string, seed int64, budget time.Duration, traced bool) int {
	rec, err := runOne(name, seed, budget, traced, defaultSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h := readHost()
	fmt.Printf("host: %s\n", h)
	printRecord(rec)
	path, err := writeOut(fmt.Sprintf("run-%s-seed%d-%s.json", name, seed, rec.mode()), struct {
		Schema string     `json:"schema"`
		Host   hostInfo   `json:"host"`
		Run    *runRecord `json:"run"`
	}{"smtdram-bench-run/1", h, rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("  record: %s\n", path)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// ledger is the one output file of a full invocation.
type ledger struct {
	Schema    string           `json:"schema"`
	ModelNote string           `json:"model_note"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Summary is each end-to-end metric across the timed runs (their
	// medians): what compare reads.
	Summary map[string]metricSummary `json:"summary"`
	Timed   []*runRecord             `json:"timed"`
	Traced  *runRecord               `json:"traced"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

const ledgerSchema = "smtdram-bench/1"

func ledgerMain(seed int64, budget time.Duration, runs int, out string) int {
	lg := ledger{Schema: ledgerSchema, ModelNote: modelNote, Host: readHost(),
		Seed: seed, Seconds: budget.Seconds(), Runs: runs}
	fmt.Printf("host: %s\n", lg.Host)
	fmt.Println(modelNote)
	failed := 0
	for _, ws := range workloadSpecs {
		lw := ledgerWorkload{Name: ws.Name, Why: ws.Why, Summary: map[string]metricSummary{}}
		fmt.Printf("\n== %s: %s\n", ws.Name, ws.Why)
		for r := 0; r < runs; r++ {
			rec, err := runOne(ws.Name, seed+int64(r), budget, false, defaultSizes)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printRecord(rec)
			failed += rec.Failed
			// The ledger keeps each run's medians; pass-by-pass detail is what
			// a single --workload run records.
			rec.Cold, rec.Warm = nil, nil
			lw.Timed = append(lw.Timed, rec)
		}
		for _, m := range endToEnd {
			var vals []float64
			for _, rec := range lw.Timed {
				vals = append(vals, rec.Metrics[m.Name].Value)
			}
			s := summarize(vals)
			lw.Summary[m.Name] = metricSummary{Unit: m.Unit, N: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3, Spread: s.spread(), Values: vals}
		}
		if runs > 1 {
			fmt.Printf("%s across %d runs\n", ws.Name, runs)
			fmt.Printf("  %-36s %-12s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
			for _, m := range endToEnd {
				s := lw.Summary[m.Name]
				fmt.Printf("  %-36s %-12s %14.6g %14.6g %14.6g %7.2f%%\n", m.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Spread*100)
			}
		}
		rec, err := runOne(ws.Name, seed, budget, true, defaultSizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printRecord(rec)
		failed += rec.Failed
		lw.Traced = rec
		lg.Workloads = append(lg.Workloads, lw)
	}
	if err := writeJSON(out, lg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("\nledger: %s\n", out)
	if failed > 0 {
		fmt.Printf("%d correctness checks failed\n", failed)
		return 1
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies one bound: is b's median worse than a's by more than the
// bound? A spread wider than the bound on either side leaves the question
// open — unless every run of b reads better than every run of a.
func verdict(a, b metricSummary, better string, bound float64) string {
	sign := 1.0 // lower is better
	if better == "higher" {
		sign = -1
	}
	if a.Spread > bound || b.Spread > bound {
		allBetter := len(a.Values) > 0 && len(b.Values) > 0
		for _, x := range a.Values {
			for _, y := range b.Values {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
		return "ok"
	}
	if a.Median != 0 && sign*(b.Median-a.Median)/a.Median > bound {
		return "worse"
	}
	return "ok"
}

func readLedger(path string) (ledger, error) {
	var lg ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return lg, err
	}
	if err := json.Unmarshal(b, &lg); err != nil {
		return lg, fmt.Errorf("%s: %w", path, err)
	}
	if lg.Schema != ledgerSchema {
		return lg, fmt.Errorf("%s: schema %q, want %q", path, lg.Schema, ledgerSchema)
	}
	return lg, nil
}

// compareMain judges ledger b against ledger a (the parent, or an earlier
// set of runs of the same commit) by BENCHMARK.json's bounds.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the file holding the bounds")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] a.json b.json")
		return 2
	}
	var spec benchmarkSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readLedger(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readLedger(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for i, lg := range []ledger{a, b} {
		fmt.Printf("%c: %s  %s  seed %d, %d runs of %.0f s\n", 'a'+i, fs.Arg(i), lg.Host, lg.Seed, lg.Runs, lg.Seconds)
	}
	byName := map[string]ledgerWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	counts := map[string]int{}
	fmt.Printf("\n%-18s %-18s %-10s %6s  %-38s %-38s\n", "workload", "metric", "verdict", "bound", "a: median [q1, q3] n", "b: median [q1, q3] n")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%-18s missing from b\n", wa.Name)
			counts["unresolved"]++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			v := verdict(sa, sb, m.Better, m.Bound)
			counts[v]++
			cell := func(s metricSummary) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Printf("%-18s %-18s %-10s %5.0f%%  %-38s %-38s\n", wa.Name, m.Name, v, m.Bound*100, cell(sa), cell(sb))
		}
	}
	// The simulated counts repeat exactly for one seed, so they are compared
	// for identity, not by bound.
	fmt.Printf("\nexact counts (traced run, a seed %d, b seed %d)\n", a.Seed, b.Seed)
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wa.Traced == nil || wb.Traced == nil {
			continue
		}
		var changed []string
		same := 0
		for _, m := range perLayer {
			if !exactCounts[m.Name] {
				continue
			}
			va, vb := wa.Traced.Metrics[m.Name].Value, wb.Traced.Metrics[m.Name].Value
			if va == vb {
				same++
			} else {
				changed = append(changed, fmt.Sprintf("%s %v -> %v", m.Name, va, vb))
			}
		}
		counts["changed"] += len(changed)
		fmt.Printf("%-18s %d identical, %d changed %s\n", wa.Name, same, len(changed), strings.Join(changed, "; "))
	}
	fmt.Printf("\n%d ok, %d worse, %d unresolved; %d exact counts changed\n", counts["ok"], counts["worse"], counts["unresolved"], counts["changed"])
	if counts["worse"]+counts["unresolved"] > 0 {
		return 1
	}
	return 0
}
