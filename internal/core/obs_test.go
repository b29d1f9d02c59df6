package core

import (
	"bytes"
	"math"
	"testing"

	"smtdram/internal/dram"
	"smtdram/internal/obs"
)

// runObserved runs a fast mix with the given observability options attached
// and returns the observer and result.
func runObserved(t *testing.T, opts obs.Options, mutate func(*Config)) (*obs.Observer, Result) {
	t.Helper()
	cfg := fastCfg("mcf", "ammp")
	ob := obs.New(opts)
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

// Every traced request must reach exactly one terminal state (done or
// cancelled), its events must appear with nondecreasing At, and every phase
// must have End ≥ At.
func TestLifecycleInvariants(t *testing.T) {
	ob, res := runObserved(t, obs.Options{Trace: true}, nil)
	events := ob.Trace.Events()
	if len(events) == 0 {
		t.Fatal("memory-bound mix produced no lifecycle events")
	}
	if ob.FinalCycle == 0 {
		t.Fatal("Finish did not record the final cycle")
	}
	_ = res
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

// Two runs with the same seed must export byte-identical traces and metrics —
// the property that makes traces diffable across refactorings.
func TestTraceDeterminism(t *testing.T) {
	exportAll := func() (jsonl, chrome, metrics []byte) {
		ob, _ := runObserved(t, obs.Options{Trace: true, Metrics: true, MetricsInterval: 500}, nil)
		var j, c, m bytes.Buffer
		if err := ob.Trace.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := ob.Trace.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		if err := ob.Reg.WriteJSONL(&m, "det", ob.FinalCycle); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes(), m.Bytes()
	}
	j1, c1, m1 := exportAll()
	j2, c2, m2 := exportAll()
	if !bytes.Equal(j1, j2) {
		t.Fatal("same-seed JSONL traces differ")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("same-seed Chrome traces differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("same-seed metrics exports differ")
	}
	if len(j1) == 0 || len(c1) == 0 || len(m1) == 0 {
		t.Fatal("empty export")
	}
}

// The registry's aggregates must agree with the result collection and with
// an independent recount from the request-lifecycle trace: every dispatch is
// one KIssue carrying its row-buffer outcome, and every accepted read one
// KEnqueue.
func TestMetricsMatchAnalysis(t *testing.T) {
	ob, res := runObserved(t, obs.Options{Metrics: true, MetricsInterval: 1, Trace: true}, func(cfg *Config) {
		cfg.WarmupInstr = 0 // measure from cycle 0 so cumulative counters align
	})
	var issued, hits, reads uint64
	for _, e := range ob.Trace.Events() {
		switch {
		case e.Kind == obs.KIssue:
			issued++
			if e.Outcome == dram.Hit.String() {
				hits++
			}
		case e.Kind == obs.KEnqueue && e.Read:
			reads++
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

	hitRate, ok := ob.Reg.Value("memctrl.row_hit_rate", ob.FinalCycle)
	if !ok {
		t.Fatal("memctrl.row_hit_rate not registered")
	}
	if math.Abs(hitRate-traceHitRate) > 1e-9 {
		t.Fatalf("registry row hit rate %.6f != trace %.6f", hitRate, traceHitRate)
	}

	if v, ok := ob.Reg.Value("memctrl.reads", ob.FinalCycle); !ok || uint64(v) != res.MemReads {
		t.Fatalf("memctrl.reads = %v, result %d", v, res.MemReads)
	}
	if v, ok := ob.Reg.Value("memctrl.avg_read_latency", ob.FinalCycle); !ok || math.Abs(v-res.AvgReadLatency) > 1e-9 {
		t.Fatalf("memctrl.avg_read_latency = %v, result %f", v, res.AvgReadLatency)
	}

	// The per-cycle outstanding.total series, integrated, must agree with the
	// controller's time-weighted OutstandingHist: both measure request-cycles
	// in the DRAM system. Sampling reads post-cycle state while the histogram
	// integrates intra-cycle change points, so allow a small relative slack.
	cycles, series, ok := ob.Reg.Series("memctrl.outstanding.total")
	if !ok || len(series) == 0 {
		t.Fatal("memctrl.outstanding.total series missing")
	}
	if len(cycles) != len(series) {
		t.Fatalf("series length mismatch: %d cycles, %d values", len(cycles), len(series))
	}
	var sampled float64
	for _, v := range series {
		sampled += v
	}
	var weighted float64
	for i, dt := range res.OutstandingHist {
		weighted += float64(i) * float64(dt)
	}
	if weighted == 0 {
		t.Fatal("OutstandingHist empty")
	}
	if rel := math.Abs(sampled-weighted) / weighted; rel > 0.05 {
		t.Fatalf("sampled outstanding integral %.0f vs histogram %.0f (%.1f%% off)",
			sampled, weighted, 100*rel)
	}

	// Per-thread outstanding series must sum to the total at every sample.
	s0, ok0 := seriesOf(t, ob.Reg, "memctrl.outstanding.t0")
	s1, ok1 := seriesOf(t, ob.Reg, "memctrl.outstanding.t1")
	if !ok0 || !ok1 {
		t.Fatal("per-thread outstanding series missing")
	}
	for i := range series {
		if perThread := s0[i] + s1[i]; perThread > series[i] {
			t.Fatalf("sample %d: per-thread outstanding %f > total %f (writebacks excluded)",
				i, perThread, series[i])
		}
	}
}

func seriesOf(t *testing.T, reg *obs.Registry, name string) ([]float64, bool) {
	t.Helper()
	_, s, ok := reg.Series(name)
	return s, ok
}

// Tracing must not change simulation results: the observer only reads state.
func TestObservabilityIsPassive(t *testing.T) {
	cfg := fastCfg("mcf", "ammp")
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ob, observed := runObserved(t, obs.Options{Trace: true, Metrics: true, Profile: true}, nil)
	if plain.Cycles != observed.Cycles || plain.TotalIPC() != observed.TotalIPC() ||
		plain.MemReads != observed.MemReads || plain.RowHits != observed.RowHits {
		t.Fatalf("observability changed results: %+v vs %+v", plain, observed)
	}
	if ob.Prof.Cycles() == 0 {
		t.Fatal("profiler observed no cycles")
	}
}

// The past-schedule hazard counter must be visible through the registry and
// zero on a healthy run.
func TestEventQueueMetrics(t *testing.T) {
	ob, _ := runObserved(t, obs.Options{Metrics: true}, nil)
	if v, ok := ob.Reg.Value("event.past_schedules", ob.FinalCycle); !ok || v != 0 {
		t.Fatalf("event.past_schedules = %v, %v; want 0 on a healthy run", v, ok)
	}
	if v, ok := ob.Reg.Value("event.fired", ob.FinalCycle); !ok || v == 0 {
		t.Fatalf("event.fired = %v, %v; want nonzero", v, ok)
	}
	if v, ok := ob.Reg.Value("event.max_pending", ob.FinalCycle); !ok || v == 0 {
		t.Fatalf("event.max_pending = %v, %v; want nonzero", v, ok)
	}
}
