package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// runBothSpeeds executes the same configuration with the two-speed clock
// enabled and force-disabled and returns both results plus the skipping
// run's skip statistics.
func runBothSpeeds(t *testing.T, cfg Config) (skip, tick Result, st obs.SkipStats) {
	t.Helper()
	cfg.DisableClockSkip = false
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skip, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st = s.SkipStats()
	cfg.DisableClockSkip = true
	tick, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return skip, tick, st
}

// The two-speed clock's contract is byte-identity, not statistical closeness:
// across every fetch policy the full Result struct — IPCs, latencies,
// per-cycle-accumulated histograms, cache counters — must be exactly equal
// with skipping enabled and disabled. The MEM-class mix maximizes quiescent
// windows, so this also asserts skipping actually engages.
func TestSkipEquivalenceAcrossPolicies(t *testing.T) {
	for _, p := range cpu.FetchPolicies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := fastCfg("mcf", "art")
			cfg.CPU.Policy = p
			skip, tick, st := runBothSpeeds(t, cfg)
			if !reflect.DeepEqual(skip, tick) {
				t.Fatalf("results diverge between clock speeds:\nskip: %+v\ntick: %+v", skip, tick)
			}
			if st.Skipped == 0 {
				t.Fatalf("MEM-class mix under %v skipped no cycles", p)
			}
			if st.Segments == 0 || st.Longest == 0 || st.Longest > st.Skipped {
				t.Fatalf("inconsistent skip stats: %+v", st)
			}
		})
	}
}

// A 4-thread all-MEM mix is the paper's (and the skip optimization's) best
// case; the windows must be long, and byte-identity must hold there too.
func TestSkipEquivalenceMEMMix(t *testing.T) {
	cfg := fastCfg("mcf", "art", "swim", "lucas")
	skip, tick, st := runBothSpeeds(t, cfg)
	if !reflect.DeepEqual(skip, tick) {
		t.Fatalf("results diverge between clock speeds:\nskip: %+v\ntick: %+v", skip, tick)
	}
	if st.Skipped == 0 {
		t.Fatal("all-MEM mix skipped no cycles")
	}
}

// TestSkipEquivalenceSerializedController pins the MEMMix benchmark machine:
// a ganged close-page FCFS controller with a serialized in-flight window
// (MaxInFlight=1) under the fetch-stall frontend policy. This is the
// deepest-skipping configuration in the repo — the one the ≥2x wall-clock
// claim is measured on — so its byte-identity deserves a dedicated gate
// rather than riding on the benchmark's simcycle check alone.
func TestSkipEquivalenceSerializedController(t *testing.T) {
	cfg := fastCfg("mcf", "mcf", "mcf", "mcf")
	cfg.Mem.PhysChannels = 4
	cfg.Mem.Gang = 4
	cfg.Mem.PageMode = dram.ClosePage
	cfg.Mem.Policy = memctrl.FCFS
	cfg.Mem.QueueDepth = 8
	cfg.Mem.MaxInFlight = 1
	cfg.CPU.Policy = cpu.FetchStall
	skip, tick, st := runBothSpeeds(t, cfg)
	if !reflect.DeepEqual(skip, tick) {
		t.Fatalf("results diverge between clock speeds:\nskip: %+v\ntick: %+v", skip, tick)
	}
	if st.Skipped == 0 {
		t.Fatal("serialized controller mix skipped no cycles")
	}
}

// Fault-injected runs exercise retry backoff timers whose exact timing must
// survive fast-forwarding.
func TestSkipEquivalenceWithFaults(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		plan := &faults.Plan{DropRate: 5e-3, Seed: 11}
		skip, tick, _ := runBothSpeeds(t, faultyCfg(plan, "mcf", "art"))
		if !reflect.DeepEqual(skip, tick) {
			t.Fatalf("faulty results diverge between clock speeds:\nskip: %+v\ntick: %+v", skip, tick)
		}
		if skip.Faults.Drops == 0 {
			t.Fatal("drop plan dropped nothing; the test exercised no retry path")
		}
	})
}

// The lifecycle trace observes the machine mid-run — every event cycle must
// match byte-for-byte across clock speeds, which is what makes traces
// diffable across this optimization.
func TestSkipEquivalenceObserved(t *testing.T) {
	export := func(disable bool) (jsonl, chrome []byte, sk obs.SkipStats) {
		cfg := fastCfg("mcf", "ammp")
		cfg.DisableClockSkip = disable
		ob := &obs.Observer{Trace: obs.NewTracer()}
		cfg.Observe = func() *obs.Observer { return ob }
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := ob.Trace.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := ob.Trace.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes(), ob.Skip
	}
	j1, c1, sk := export(false)
	j2, c2, noSk := export(true)
	if !bytes.Equal(j1, j2) {
		t.Fatal("lifecycle JSONL traces differ between clock speeds")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("Chrome traces differ between clock speeds")
	}
	if len(j1) == 0 {
		t.Fatal("empty export")
	}
	if sk.Skipped == 0 {
		t.Fatal("observed run skipped no cycles; observer boundaries are over-clamping")
	}
	// Wall is recorded either way (it is the denominator, not a skip count);
	// everything else must be zero when skipping is disabled.
	if noSk.Skipped != 0 || noSk.Segments != 0 || noSk.Longest != 0 {
		t.Fatalf("skip-disabled run reported skip stats: %+v", noSk)
	}
	if noSk.Wall == 0 || noSk.Wall != sk.Wall {
		t.Fatalf("wall cycles disagree between clock speeds: skip=%d noskip=%d", sk.Wall, noSk.Wall)
	}
}

// Attaching an observer must not change how far the two-speed clock reaches:
// a daemon-style progress observer (no registry, so no sample boundaries)
// constrains nothing, and the run must skip exactly the same windows it
// would unobserved — the regression this pins is the old run loop silently
// dropping every observed run to the slow shallow path. Results stay
// byte-identical too, via the usual contract.
func TestSkipStatsUnchangedByObserver(t *testing.T) {
	run := func(ob *obs.Observer) (Result, obs.SkipStats) {
		cfg := fastCfg("mcf", "art", "swim", "lucas")
		if ob != nil {
			cfg.Observe = func() *obs.Observer { return ob }
		}
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, s.SkipStats()
	}
	bare, bareSt := run(nil)
	var ticks int
	obRes, obSt := run(&obs.Observer{
		Progress:         func(uint64) { ticks++ },
		ProgressInterval: 10_000,
	})
	if !reflect.DeepEqual(bare, obRes) {
		t.Fatalf("results diverge with an observer attached:\nbare: %+v\nobs:  %+v", bare, obRes)
	}
	if bareSt != obSt {
		t.Fatalf("skip stats diverge with an observer attached:\nbare: %+v\nobs:  %+v", bareSt, obSt)
	}
	if bareSt.Skipped == 0 {
		t.Fatal("MEM mix skipped no cycles")
	}
	if ticks == 0 {
		t.Fatal("progress observer never fired")
	}
}

// A run that spends its budget ends one cycle past it at either speed, with
// every cycle of the budget accounted exactly once — ticked, or settled by a
// span that stopped at the budget and not beyond. Several budgets, so that
// some end inside a span: that is the case mustLand's budget rule exists for.
func TestSkipEquivalenceTimedOut(t *testing.T) {
	var endedInSpan bool
	for _, limit := range []uint64{60_000, 60_131, 60_262, 60_393, 120_524, 120_655} {
		run := func(disable bool) (Result, *Simulator) {
			cfg := fastCfg("mcf", "art", "swim", "lucas")
			cfg.WarmupInstr, cfg.MaxCycles, cfg.DisableClockSkip = 5_000, limit, disable
			s, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res, s
		}
		skip, ss := run(false)
		tick, ts := run(true)
		if !skip.TimedOut || !reflect.DeepEqual(skip, tick) {
			t.Fatalf("budget %d: results diverge between clock speeds (or the run finished):\nskip: %+v\ntick: %+v", limit, skip, tick)
		}
		if ss.cpu.Cycles != limit || ts.cpu.Cycles != limit {
			t.Fatalf("budget %d: the CPU accounts %d cycles skipping, %d ticking", limit, ss.cpu.Cycles, ts.cpu.Cycles)
		}
		if w := ss.SkipStats().Wall; w != limit+1 || ts.SkipStats().Wall != w {
			t.Fatalf("budget %d: run ends at cycle %d skipping, %d ticking", limit, w, ts.SkipStats().Wall)
		}
		endedInSpan = endedInSpan || !ss.cpu.Acted()
	}
	if !endedInSpan {
		t.Fatal("no budget ended inside a quiet span; pick other budgets")
	}
}

// stallingSource commits left instructions and then livelocks like
// stuckSource, so the watchdog's window opens on a commit, not on cycle 0.
type stallingSource struct{ left int }

func (s *stallingSource) Next() workload.Instr {
	if s.left > 0 {
		s.left--
		return workload.Instr{Kind: workload.IntOp, Lat: 1}
	}
	return stuckSource{}.Next()
}

// The watchdog must trip at exactly the same cycle whether the livelocked
// window was ticked through or sailed across: the clock bounds its spans by
// tripAt, the cycle a per-1024-cycle check would trip on. The pinned cycles are
// what the run loop produced when it still emulated those checks span by span.
func TestSkipWatchdogEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func() cpu.Source
		want NoProgressError
	}{
		{"stuck", func() cpu.Source { return stuckSource{} },
			NoProgressError{Cycle: 20_480, Window: 20_000, Committed: 0}},
		{"stalls-after-5000", func() cpu.Source { return &stallingSource{left: 5000} },
			NoProgressError{Cycle: 21_504, Window: 20_000, Committed: 5000}},
	} {
		for _, disable := range []bool{false, true} {
			cfg := fastCfg(tc.name)
			cfg.Sources = []cpu.Source{tc.src()}
			cfg.MaxCycles = 50_000_000
			cfg.WatchdogCycles = 20_000
			cfg.DisableClockSkip = disable
			_, err := Run(cfg)
			var npe *NoProgressError
			if !errors.As(err, &npe) {
				t.Fatalf("%s: livelocked run returned %v, want *NoProgressError", tc.name, err)
			}
			if *npe != tc.want {
				t.Fatalf("%s (ticked %v): watchdog = %+v, want %+v", tc.name, disable, *npe, tc.want)
			}
		}
	}
}

// Higher-level drivers (figure sweeps, weighted speedup) must also be
// oblivious to the clock speed; this guards the snapshot/collect plumbing end
// to end through WeightedSpeedup's multi-run path.
func TestSkipEquivalenceWeightedSpeedup(t *testing.T) {
	run := func(disable bool) (float64, Result) {
		cfg := fastCfg("mcf", "art")
		cfg.DisableClockSkip = disable
		ws, res, err := WeightedSpeedup(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ws, res
	}
	ws1, r1 := run(false)
	ws2, r2 := run(true)
	if ws1 != ws2 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("weighted speedup diverges: %v vs %v", ws1, ws2)
	}
}

// Fingerprint must ignore the clock-speed toggle: the two modes are the same
// experiment, and the runner's memoization must treat them as such.
func TestSkipAbsentFromFingerprint(t *testing.T) {
	a := fastCfg("mcf")
	b := fastCfg("mcf")
	b.DisableClockSkip = true
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("fingerprint depends on DisableClockSkip:\n%s\n%s", fa, fb)
	}
}
