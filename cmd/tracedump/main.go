// Command tracedump runs one simulation and writes every serviced DRAM
// request as a CSV row — the raw material for offline analysis of access
// scheduling (inter-arrival clustering, per-thread queueing, row-buffer
// locality over time). With -lifecycle it instead records the full
// request-lifecycle trace (enqueue → schedule → precharge/activate/CAS →
// data return) and pretty-prints, filters, or re-exports it.
//
// Usage:
//
//	tracedump -mix 2-MEM -n 50000 > trace.csv
//	tracedump -apps swim -policy fcfs | head
//	tracedump -mix 4-MEM -summary              # aggregate analysis, no CSV
//	tracedump -lifecycle -thread 0 -from 5000 -to 9000
//	tracedump -lifecycle -format chrome > trace.json   # open in Perfetto
//	tracedump -lifecycle -format jsonl -channel 1 -bank 3
//
// Columns (CSV mode):
// arrive,issue,done,thread,read,channel,chip,bank,row,outcome,queued.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smtdram/internal/analysis"
	"smtdram/internal/core"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/server"
)

func main() {
	var (
		mix     = flag.String("mix", "", "Table 2 mix name; overrides -apps")
		apps    = flag.String("apps", "mcf,ammp", "comma-separated application list")
		policy  = flag.String("policy", "hit-first", "scheduling policy")
		warmup  = flag.Uint64("warmup", 100_000, "per-thread warmup instructions")
		target  = flag.Uint64("n", 100_000, "per-thread measured instructions")
		seed    = flag.Int64("seed", 42, "workload seed")
		summary = flag.Bool("summary", false, "print an aggregate analysis instead of the CSV")
		faultSp = flag.String("faults", "", "fault-injection plan (same spec as smtdram -faults); fault/retry/failover milestones then appear in the lifecycle trace")

		lifecycle = flag.Bool("lifecycle", false, "record the request-lifecycle trace instead of the CSV")
		format    = flag.String("format", "pretty", "lifecycle output: pretty, jsonl, or chrome")
		thread    = flag.String("thread", "", "lifecycle filter: hardware thread (-1 = writebacks; empty = any)")
		channel   = flag.String("channel", "", "lifecycle filter: DRAM channel (empty = any)")
		bank      = flag.String("bank", "", "lifecycle filter: bank within a chip (empty = any)")
		from      = flag.Uint64("from", 0, "lifecycle filter: first cycle of interest")
		to        = flag.Uint64("to", 0, "lifecycle filter: last cycle of interest (0 = unbounded)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr("unexpected argument %q (all options are flags)", flag.Arg(0))
	}

	// The same resolver as cmd/smtdram and the daemon; a request it rejects
	// is a usage error.
	cfg, err := server.SimRequest{Mix: *mix, Apps: strings.Split(*apps, ","), Policy: *policy,
		Warmup: warmup, Target: target, Seed: seed, Faults: *faultSp}.Config()
	if err != nil {
		usageErr("%v", err)
	}

	if *lifecycle {
		switch strings.ToLower(*format) {
		case "pretty", "jsonl", "chrome":
		default:
			usageErr("unknown lifecycle format %q (want pretty, jsonl, or chrome)", *format)
		}
		f := obs.Filter{From: *from, To: *to}
		f.Thread = parseIntFilter("thread", *thread)
		f.Channel = parseIntFilter("channel", *channel)
		f.Bank = parseIntFilter("bank", *bank)
		runLifecycle(cfg, *format, f)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	var events uint64
	var coll analysis.Collector
	if *summary {
		cfg.Mem.Trace = func(e memctrl.TraceEvent) {
			events++
			coll.Add(e)
		}
	} else {
		fmt.Fprintln(w, "arrive,issue,done,thread,read,channel,chip,bank,row,outcome,queued")
		cfg.Mem.Trace = func(e memctrl.TraceEvent) {
			events++
			fmt.Fprintf(w, "%d,%d,%d,%d,%t,%d,%d,%d,%d,%s,%d\n",
				e.Arrive, e.Issue, e.Done, e.Thread, e.Read,
				e.Channel, e.Chip, e.Bank, e.Row, e.Outcome, e.QueuedBehind)
		}
	}

	res, err := core.Run(cfg)
	fatalIf(err)
	if *summary {
		sum, err := coll.Summarize()
		fatalIf(err)
		fmt.Fprint(w, sum)
	}
	fmt.Fprintf(os.Stderr, "tracedump: %d events over %d cycles (%.2f reads/100 instr)\n",
		events, res.Cycles, res.MemReadsPer100Inst)
}

// runLifecycle runs the simulation with the lifecycle tracer attached and
// renders the (filtered) trace in the requested format.
func runLifecycle(cfg core.Config, format string, f obs.Filter) {
	ob := obs.New(obs.Options{Trace: true})
	cfg.Observe = func() *obs.Observer { return ob }
	s, err := core.NewSimulator(cfg)
	fatalIf(err)
	res, err := s.Run()
	fatalIf(err)

	events := obs.FilterEvents(ob.Trace.Events(), f)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch strings.ToLower(format) {
	case "jsonl":
		fatalIf(obs.WriteJSONL(w, events))
	case "chrome":
		fatalIf(obs.WriteChrome(w, events))
	default: // main validated the format; anything else renders pretty
		printPretty(w, events)
	}
	// The trace itself is byte-identical at either clock speed; the skip
	// summary goes to stderr with the other diagnostics so stdout stays pure.
	st := s.SkipStats()
	fmt.Fprintf(os.Stderr, "tracedump: %d lifecycle events (of %d recorded) over %d cycles; clock skipped %d of %d wall cycles (%.1f%%) in %d windows, longest %d\n",
		len(events), ob.Trace.Len(), res.Cycles, st.Skipped, st.Wall, 100*st.Rate(), st.Segments, st.Longest)
}

// printPretty renders the trace grouped by request, one milestone per line.
func printPretty(w *bufio.Writer, events []obs.Event) {
	for _, group := range obs.GroupByRequest(events) {
		e0 := group[0]
		kind := "read"
		if !e0.Read {
			kind = "write"
		}
		origin := fmt.Sprintf("thread %d", e0.Thread)
		if e0.Thread < 0 {
			origin = "writeback"
		}
		fmt.Fprintf(w, "req %d  %s 0x%x  %s  ch%d chip%d bank%d row %d\n",
			e0.ReqID, kind, e0.Addr, origin, e0.Channel, e0.Chip, e0.Bank, e0.Row)
		for _, e := range group {
			switch {
			case e.End > e.At:
				fmt.Fprintf(w, "  %10d..%-10d %-10s (%d cycles)", e.At, e.End, e.Kind, e.End-e.At)
			default:
				fmt.Fprintf(w, "  %10d              %-10s", e.At, e.Kind)
			}
			if e.Outcome != "" {
				fmt.Fprintf(w, "  %s", e.Outcome)
			}
			if e.Kind == obs.KEnqueue && e.Queue > 0 {
				fmt.Fprintf(w, "  queue=%d", e.Queue)
			}
			fmt.Fprintln(w)
		}
	}
}

// parseIntFilter converts a flag value into an optional int filter; empty
// means "match any".
func parseIntFilter(name, s string) *int {
	if s == "" {
		return nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		usageErr("-%s: %q is not an integer", name, s)
	}
	return &v
}

// usageErr reports a wrong invocation (exit 2); fatalIf a failed run (exit 1).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracedump: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}
