package core

import (
	"bytes"
	"math"
	"testing"

	"smtdram/internal/dram"
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
