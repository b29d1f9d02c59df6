package core

import (
	"bytes"
	"context"
	"testing"

	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// lockstepCase is one machine the lockstep oracle runs at both speeds.
type lockstepCase struct {
	name string
	cfg  func() Config
	// traced attaches a lifecycle tracer to both machines.
	traced bool
	// restored starts the skipping machine from a warmup checkpoint; the twin
	// ticks there from cycle 1.
	restored bool
}

// TestSkipLockstepDeep is the strong oracle for the two-speed clock: it drives
// one machine with the run loop's own clock (until → step → sail, clock.go)
// and a twin with plain per-cycle Ticks, comparing the full observable CPU
// fingerprint at every landed cycle — and, stricter, asserting the twin's
// Tick never moves the fingerprint on a cycle the clock skipped. The
// end-to-end equivalence tests in skip_test.go compare final Results; this
// test pins down *which cycle* a divergence first appears at, and is the only
// one that can catch a multi-cycle optimism bug (a probe bound that is too far
// out) whose damage happens mid-span. The one-cycle oracle in the cpu package
// (TestNextWorkAtPredictsQuietCycles) structurally cannot.
//
// Because the clock under test is the production one, its landing rules are
// under the oracle too. The traced variant asserts the skipping machine's
// request-lifecycle trace — whose memory-side events fire inside sailed spans
// — is byte-equal to the twin's. The seeded-fault variant routes drop-retry
// backoff timers through the span drain, where a deadline missing from the
// event queue would surface as a divergence at its exact cycle. The restored
// variant starts the clock from a warmup checkpoint, and the icount variant
// puts ICOUNT's fixed gate under the oracle (the others run DWarn and
// Fetch-Stall). Every variant must skip, so none can pass by ticking.
func TestSkipLockstepDeep(t *testing.T) {
	base := func() Config {
		cfg := fastCfg("mcf", "ammp", "swim", "lucas")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		return cfg
	}
	serialized := func() Config {
		// The MEMMix benchmark machine: four copies of the most memory-bound
		// app on a ganged close-page FCFS controller with a serialized
		// in-flight window, under the fetch-stall frontend policy. This is
		// the deepest-skipping configuration in the repo, so it exercises
		// the re-probe path (and the FetchStall gate bounds) hardest.
		cfg := fastCfg("mcf", "mcf", "mcf", "mcf")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		cfg.Mem.PhysChannels = 4
		cfg.Mem.Gang = 4
		cfg.Mem.PageMode = dram.ClosePage
		cfg.Mem.Policy = memctrl.FCFS
		cfg.Mem.QueueDepth = 8
		cfg.Mem.MaxInFlight = 1
		cfg.CPU.Policy = cpu.FetchStall
		return cfg
	}
	faulty := func() Config {
		// Seeded drops arm retry backoff timers whose expiries are in-span
		// events; the event queue must carry them or the twin acts mid-span.
		cfg := faultyCfg(&faults.Plan{DropRate: 5e-3, Seed: 11}, "mcf", "art", "swim", "lucas")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		return cfg
	}
	shortWarm := func() Config {
		cfg := base()
		cfg.WarmupInstr = 2_000 // the boundary falls around cycle 55k, early in the lockstep window
		return cfg
	}
	icount8 := func() Config {
		// Table 2's 8-MEM under ICOUNT: the one gate whose limit never moves,
		// on the mix where it binds every thread.
		cfg := fastCfg("mcf", "ammp", "swim", "lucas", "equake", "applu", "vpr", "facerec")
		cfg.CPU.Policy = cpu.ICOUNT
		return cfg
	}
	for _, tc := range []lockstepCase{
		{name: "default-mix", cfg: base},
		{name: "serialized-fetchstall", cfg: serialized},
		{name: "icount-8-mem", cfg: icount8},
		{name: "seeded-faults", cfg: faulty},
		{name: "observed-default-mix", cfg: base, traced: true},
		{name: "restored-default-mix", cfg: shortWarm, restored: true},
	} {
		t.Run(tc.name, func(t *testing.T) { lockstepDeep(t, tc) })
	}
}

func lockstepDeep(t *testing.T, tc lockstepCase) {
	// The cycle budget ends the lockstep window. One goroutine drives both
	// machines, so the race detector has nothing to find in a long one.
	limit := uint64(400_000)
	if testing.Short() || raceDetector {
		limit = 120_000
	}
	ctx := context.Background()
	mk := func() (Config, *obs.Observer) {
		cfg := tc.cfg()
		cfg.MaxCycles = limit
		var ob *obs.Observer
		if tc.traced {
			ob = &obs.Observer{Trace: obs.NewTracer()}
			cfg.Observe = func() *obs.Observer { return ob }
		}
		return cfg, ob
	}
	build := func(cfg Config) *Simulator {
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scfg, sob := mk()
	ucfg, uob := mk()
	s, u := build(scfg), build(ucfg)
	var uNow uint64
	if tc.restored {
		chk, err := WarmupCheckpoint(ctx, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if s, err = NewCheckpointedSimulator(scfg, chk); err != nil {
			t.Fatal(err)
		}
		for uNow < chk.Now {
			uNow++
			u.q.RunUntil(uNow)
			u.cpu.Tick(uNow)
		}
	}

	// A short ring of recent landings, dumped on failure so the offending
	// span is visible without re-instrumenting.
	var landings [][2]uint64 // (landed cycle, cycles sailed to reach it)
	fatalf := func(f string, a ...any) {
		t.Helper()
		for _, l := range landings {
			t.Logf("landed %d after sailing %d", l[0], l[1])
		}
		t.Fatalf(f, a...)
	}

	// follow brings the twin to cycle to, one plain Tick at a time. Every
	// cycle before to is one the clock skipped, where the twin's Tick must
	// leave the fingerprint alone; so must to itself unless it landed.
	follow := func(to uint64, landed bool) {
		for uNow < to {
			uNow++
			u.q.RunUntil(uNow)
			skipped := !landed || uNow < to
			var pre string
			if skipped {
				pre = u.cpu.Fingerprint()
			}
			u.cpu.Tick(uNow)
			if skipped {
				if post := u.cpu.Fingerprint(); post != pre {
					fatalf("twin acted at skipped cycle %d\npre:  %s\npost: %s", uNow, pre, post)
				}
			}
		}
		if a, b := s.cpu.Fingerprint(), u.cpu.Fingerprint(); a != b {
			fatalf("diverged at cycle %d (landed %v)\nskip: %s\ntick: %s", to, landed, a, b)
		}
	}

	k := s.newClock()
	if k.now != uNow {
		t.Fatalf("clock starts at cycle %d, twin stands at %d", k.now, uNow)
	}
	err := k.until(ctx, func() bool {
		prev := uNow
		if k.now > prev+1 {
			landings = append(landings[max(0, len(landings)-11):], [2]uint64{k.now, k.now - 1 - prev})
		}
		follow(k.now, true)
		assertControllerCovered(t, s, k.now)
		return s.cpu.AllFinished()
	})
	if err != nil {
		t.Fatal(err)
	}
	// A final span may sail right out of the budget, leaving the twin behind:
	// the clock settled those cycles in aggregate, so the twin idles through
	// the same window before the closing comparison.
	end := min(k.now, limit)
	follow(end, false)

	if s.SkipStats().Skipped == 0 {
		t.Fatal("the clock never sailed: this variant checked nothing about spans")
	}
	if tc.traced {
		sob.Finish(end)
		uob.Finish(end)
		var sj, uj bytes.Buffer
		if err := sob.Trace.WriteJSONL(&sj); err != nil {
			t.Fatal(err)
		}
		if err := uob.Trace.WriteJSONL(&uj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj.Bytes(), uj.Bytes()) {
			t.Fatal("lifecycle traces diverge between the clock-driven machine and its ticked twin")
		}
		if sob.Trace.Len() == 0 {
			t.Fatal("traced lockstep recorded no events")
		}
	}
}
