package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"smtdram/internal/cache"
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
	// observe, when set, attaches an observer built from these options to
	// both machines.
	observe *obs.Options
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
// under the oracle too. The profiled variant asserts the skipping machine's
// loop profile — fed only landed and sailed-through event cycles — equals the
// twin's per-cycle one. The sampled variant asserts every registry sample
// cycle lands and the metrics export equals the twin's. The seeded-fault
// variant routes retry backoff timers and ECC scrubbing through the span
// drain, where a deadline the controller probe failed to report would surface
// as a divergence at its exact cycle. The channel-fail variant asserts the
// planned failure's cycle lands and the failover report equals a ticked run's.
// The restored variant starts the clock from a warmup checkpoint, and the
// icount variant puts ICOUNT's fixed gate under the oracle (the others run
// DWarn and Fetch-Stall). Every variant must skip, so none can pass by ticking.
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
		// Seeded bit-flip and drop faults arm retry backoff timers whose
		// expiries are in-span events; the controller probe must report them
		// (and the ECC scrub latency bumps) or the twin acts mid-span.
		cfg := faultyCfg(&faults.Plan{BitFlipRate: 5e-2, DropRate: 5e-3, Seed: 11},
			"mcf", "art", "swim", "lucas")
		cfg.WarmupInstr = 60_000
		cfg.TargetInstr = 40_000
		return cfg
	}
	failing := func() Config {
		cfg := base()
		cfg.Faults = &faults.Plan{ChannelFail: &faults.ChannelFail{Channel: 1, At: 40_000}}
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
		{name: "observed-default-mix", cfg: base, observe: &obs.Options{Profile: true}},
		{name: "sampled-default-mix", cfg: base, observe: &obs.Options{Metrics: true, MetricsInterval: 500}},
		{name: "channel-fail", cfg: failing},
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
		if tc.observe != nil {
			ob = obs.New(*tc.observe)
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
			if uob != nil {
				uob.OnCycle(uNow, u.q.Fired())
			}
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
	var failAt uint64 // the planned channel failure's cycle, 0 without one
	if f := scfg.Faults; f != nil && f.ChannelFail != nil {
		failAt = f.ChannelFail.At
	}
	var sawFail bool
	var nextSample uint64 // the registry's next sample cycle as of the last landing
	err := k.until(ctx, func() bool {
		prev := uNow
		if k.now > prev+1 {
			landings = append(landings[max(0, len(landings)-11):], [2]uint64{k.now, k.now - 1 - prev})
		}
		follow(k.now, true)
		if sob != nil {
			if nextSample > 0 && k.now > nextSample {
				fatalf("the clock sailed from %d to %d across the registry's sample cycle %d", prev, k.now, nextSample)
			}
			nextSample = sob.NextBoundary()
		}
		sawFail = sawFail || (failAt > 0 && k.now == failAt)
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
	if tc.observe != nil {
		sob.Finish(end)
		uob.Finish(end)
	}
	if sob != nil && sob.Prof != nil {
		// The skipping machine's profile must be indistinguishable from the
		// ticked twin's: same cycle count, same events-per-cycle distribution.
		if sc, uc := sob.Prof.Cycles(), uob.Prof.Cycles(); sc != uc {
			t.Fatalf("profiled cycle counts diverge: skip=%d tick=%d", sc, uc)
		}
		if sh, uh := sob.Prof.Hist.String(), uob.Prof.Hist.String(); sh != uh {
			t.Fatalf("events-per-cycle histograms diverge:\nskip: %s\ntick: %s", sh, uh)
		}
		if sob.Prof.Hist.Count() == 0 {
			t.Fatal("observed lockstep profiled nothing")
		}
	}
	if sob != nil && sob.Reg != nil {
		var sm, um bytes.Buffer
		if err := sob.Reg.WriteJSONL(&sm, "lockstep", end); err != nil {
			t.Fatal(err)
		}
		if err := uob.Reg.WriteJSONL(&um, "lockstep", end); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sm.Bytes(), um.Bytes()) {
			t.Fatal("metrics exports diverge between the clock-driven machine and its ticked twin")
		}
		if cycles, _, ok := sob.Reg.Series("event.pending"); !ok || len(cycles) < 100 {
			t.Fatalf("sampled lockstep took %d samples", len(cycles))
		}
	}
	if failAt > 0 {
		if !sawFail || s.fsn == nil || s.fsn.atCycle != failAt {
			t.Fatalf("planned failure at %d: landed there %v, snapshot %+v", failAt, sawFail, s.fsn)
		}
		// The report against a machine the production loop ticks through the
		// same budget: same end cycle, so the same post-failure window.
		ucfg.DisableClockSkip = true
		want, err := Run(ucfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.collect(k.now, snapshot{caches: make([]cache.Stats, 4), committed: make([]uint64, len(scfg.Apps))})
		if err != nil {
			t.Fatal(err)
		}
		if want.Failover == nil || !reflect.DeepEqual(got.Failover, want.Failover) {
			t.Fatalf("failover reports diverge:\nskip: %+v\ntick: %+v", got.Failover, want.Failover)
		}
	}
}
