package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// runTraced runs a fast mix with a lifecycle tracer attached and returns the
// observer and result.
func runTraced(t *testing.T, mutate func(*Config)) (*obs.Observer, Result) {
	t.Helper()
	cfg := fastCfg("mcf", "ammp")
	ob := &obs.Observer{Trace: obs.NewTracer()}
	cfg.Observe = func() *obs.Observer { return ob }
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ob, res
}

// TestPhaseHookBoundaries: the run loop reports entering warmup at cycle 0,
// entering measure at the cycle the measured window opens, and the run's end
// at its final cycle — the boundaries a served job's trace stamps with wall
// instants.
func TestPhaseHookBoundaries(t *testing.T) {
	type boundary struct {
		name  string
		cycle uint64
	}
	var got []boundary
	ob, res := runTraced(t, func(cfg *Config) {
		ob := cfg.Observe()
		ob.Phase = func(name string, cycle uint64) { got = append(got, boundary{name, cycle}) }
	})
	want := []boundary{{"warmup", 0}, {"measure", ob.FinalCycle - res.Cycles}, {"", ob.FinalCycle}}
	if !slices.Equal(got, want) || want[1].cycle == 0 {
		t.Fatalf("phase boundaries = %v, want %v", got, want)
	}
}

// Every traced request must reach exactly one terminal state (done or
// cancelled), its events must appear with nondecreasing At, and every phase
// must have End ≥ At.
func TestLifecycleInvariants(t *testing.T) {
	ob, _ := runTraced(t, nil)
	events := ob.Trace.Events()
	if len(events) == 0 {
		t.Fatal("memory-bound mix produced no lifecycle events")
	}
	if ob.FinalCycle == 0 {
		t.Fatal("Finish did not record the final cycle")
	}
	groups := obs.GroupByRequest(events)
	for _, g := range groups {
		var lastAt uint64
		terminals := 0
		for i, e := range g {
			if e.End < e.At {
				t.Fatalf("req %d event %v: End %d < At %d", e.ReqID, e.Kind, e.End, e.At)
			}
			if e.At < lastAt {
				t.Fatalf("req %d: event %d (%v at %d) before predecessor at %d",
					e.ReqID, i, e.Kind, e.At, lastAt)
			}
			lastAt = e.At
			if e.Kind.Terminal() {
				terminals++
				if i != len(g)-1 {
					t.Fatalf("req %d: terminal %v not last", e.ReqID, e.Kind)
				}
			}
		}
		// A rejected request's only record may be KReject; everything that
		// entered a queue must terminate.
		if g[0].Kind == obs.KReject && len(g) == 1 {
			continue
		}
		if terminals != 1 {
			t.Fatalf("req %d: %d terminal events, want exactly 1", g[0].ReqID, terminals)
		}
	}
}

// Two runs with the same seed must export byte-identical traces — the
// property that makes traces diffable across refactorings.
func TestTraceDeterminism(t *testing.T) {
	exportAll := func() (jsonl, chrome []byte) {
		ob, _ := runTraced(t, nil)
		var j, c bytes.Buffer
		if err := ob.Trace.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := ob.Trace.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := exportAll()
	j2, c2 := exportAll()
	if !bytes.Equal(j1, j2) {
		t.Fatal("same-seed JSONL traces differ")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("same-seed Chrome traces differ")
	}
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatal("empty export")
	}
}

// The Result's memory aggregates must agree with an independent recount from
// the request-lifecycle trace: every dispatch is one KIssue carrying its
// row-buffer outcome, every accepted read one KEnqueue, and the time each
// accepted request spends between its KEnqueue and its terminal event, summed,
// is the request-cycles the time-weighted OutstandingHist integrates.
func TestTraceMatchesResult(t *testing.T) {
	ob, res := runTraced(t, func(cfg *Config) {
		cfg.WarmupInstr = 0 // measure from cycle 0 so the trace and the Result cover one window
	})
	var issued, hits, reads, reqCycles uint64
	for _, g := range obs.GroupByRequest(ob.Trace.Events()) {
		var enq uint64
		for _, e := range g {
			switch {
			case e.Kind == obs.KIssue:
				issued++
				if e.Outcome == dram.Hit.String() {
					hits++
				}
			case e.Kind == obs.KEnqueue:
				enq = e.At
				if e.Read {
					reads++
				}
			case e.Kind.Terminal():
				reqCycles += e.At - enq
			}
		}
	}
	if issued == 0 {
		t.Fatal("no DRAM traffic")
	}
	traceHitRate := float64(hits) / float64(issued)
	if reads != res.MemReads {
		t.Fatalf("trace enqueued %d reads, result %d", reads, res.MemReads)
	}
	if math.Abs(traceHitRate-(1-res.RowBufferMissRate)) > 1e-9 {
		t.Fatalf("trace row hit rate %.6f != result %.6f", traceHitRate, 1-res.RowBufferMissRate)
	}

	// The histogram's last bucket pools every depth at or beyond it, so the
	// integral is exact only while that bucket stays empty.
	hist := res.OutstandingHist
	if hist[len(hist)-1] != 0 {
		t.Fatalf("OutstandingHist overflowed its %d tracked depths", len(hist)-1)
	}
	var weighted uint64
	for i, dt := range hist {
		weighted += uint64(i) * dt
	}
	if weighted == 0 {
		t.Fatal("OutstandingHist empty")
	}
	if reqCycles != weighted {
		t.Fatalf("trace request-cycles %d != Σ i·OutstandingHist[i] %d", reqCycles, weighted)
	}
}

// TestAttributionMatchesResult runs obs.Attribute over real traces, open page
// under hit-first and close page under FCFS: every read's parts sum to its
// latency exactly; the reads recount as in TestTraceMatchesResult, and their
// latencies average to the Result's, per thread and overall; and every
// dispatch finds its own bank free, which holds only if the trace's bank
// spans, tRP after a close-page transfer included, are the model's.
func TestAttributionMatchesResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"open page, hit-first", func(*Config) {}},
		{"close page, fcfs", func(cfg *Config) {
			cfg.Mem.PageMode = dram.ClosePage
			cfg.Mem.Policy = memctrl.FCFS
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			ob, res := runTraced(t, func(c *Config) {
				c.WarmupInstr = 0 // the trace and the Result cover one window
				tc.mut(c)
				cfg = *c
			})
			m, err := cfg.Mem.TraceMachine()
			if err != nil {
				t.Fatal(err)
			}
			a := obs.Attribute(ob.Trace.Events(), m)
			if uint64(len(a.Reads)+a.Unsplit) != res.MemReads {
				t.Fatalf("%d reads split + %d unsplit, result %d", len(a.Reads), a.Unsplit, res.MemReads)
			}
			threadLat := make([]uint64, len(res.Apps))
			threadReads := make([]uint64, len(res.Apps))
			var latSum uint64
			for _, r := range a.Reads {
				if r.Total() != r.Done-r.Enqueue {
					t.Fatalf("read %d: parts %+v sum to %d, latency %d", r.ReqID, r.LatencySplit, r.Total(), r.Done-r.Enqueue)
				}
				threadLat[r.Thread] += r.Done - r.Enqueue
				threadReads[r.Thread]++
				latSum += r.Done - r.Enqueue
			}
			if got, want := float64(latSum), res.AvgReadLatency*float64(res.MemReads); math.Abs(got-want) > 1e-6*want {
				t.Fatalf("split reads' latency sums to %.0f, result %.0f", got, want)
			}
			for i, n := range threadReads {
				if got, want := float64(threadLat[i])/float64(n), res.ThreadAvgReadLatency[i]; math.Abs(got-want) > 1e-9*want {
					t.Fatalf("thread %d: split reads average %.3f cycles, result %.3f", i, got, want)
				}
			}
			var older uint64
			for i, tr := range a.ByThread() {
				t.Logf("thread %d: %d reads, %+v", i, tr.Reads, tr.Sum)
				older += tr.Sum.Older
			}
			if older == 0 {
				t.Fatal("a memory-bound pair never queued behind its own bank")
			}
			var dispatches uint64
			for _, e := range ob.Trace.Events() {
				if e.Kind == obs.KIssue {
					dispatches++
				}
			}
			var counted uint64
			for _, n := range a.Choices {
				counted += n
			}
			if counted != dispatches || a.Choices[0] != 0 {
				t.Fatalf("choice counts %v over %d dispatches: each dispatch must find its own bank free", a.Choices, dispatches)
			}
		})
	}
}

// Tracing must not change simulation results: the observer only reads state.
func TestObservabilityIsPassive(t *testing.T) {
	cfg := fastCfg("mcf", "ammp")
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ob, observed := runTraced(t, nil)
	if plain.Cycles != observed.Cycles || plain.TotalIPC() != observed.TotalIPC() ||
		plain.MemReads != observed.MemReads || plain.RowHits != observed.RowHits {
		t.Fatalf("observability changed results: %+v vs %+v", plain, observed)
	}
	if ob.Trace.Len() == 0 {
		t.Fatal("tracer recorded no events")
	}
}

// The event queue's past-schedule hazard counter must be zero on a healthy
// run, which fires events and keeps some pending.
func TestEventQueueMetrics(t *testing.T) {
	s, err := NewSimulator(fastCfg("mcf", "ammp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.q.PastSchedules(); n != 0 {
		t.Fatalf("PastSchedules = %d, want 0 on a healthy run", n)
	}
	if s.q.Fired() == 0 {
		t.Fatal("Fired = 0, want nonzero")
	}
	if s.q.MaxLen() == 0 {
		t.Fatal("MaxLen = 0, want nonzero")
	}
}
