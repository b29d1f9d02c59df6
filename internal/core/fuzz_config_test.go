package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/figures"
	"smtdram/internal/memctrl"
	"smtdram/internal/server"
	"smtdram/internal/workload"
)

// Fuzz inputs stay small: at most 2k instructions a thread in each phase and a
// cycle budget of at most fuzzBudget, so one input runs in milliseconds.
const (
	fuzzInstr  = 2_000
	fuzzBudget = 200_000
)

// fuzzSeeds is the corpus: the zero request, and every axis a catalog figure
// varies that a request can name — each Table 2 mix on the base machine
// (Figures 2–6), the fetch policies (Figure 2), the channel counts (Figure
// 6), the ganged organizations (Figure 7), DDR and RDRAM under both mappings
// (Figures 8–9) and the schedulers (Figure 10).
func fuzzSeeds() []server.SimRequest {
	w, tg := uint64(500), uint64(1_000)
	base := func(mix string) server.SimRequest {
		return server.SimRequest{Mix: mix, Warmup: &w, Target: &tg}
	}
	seeds := []server.SimRequest{{}}
	for _, m := range workload.Mixes() {
		seeds = append(seeds, base(m.Name))
	}
	for _, p := range cpu.FetchPolicies() {
		r := base("4-MIX")
		r.Fetch = p.String()
		seeds = append(seeds, r)
	}
	for _, ch := range []int{2, 4, 8} {
		r := base("4-MEM")
		r.Channels = ch
		seeds = append(seeds, r)
	}
	for _, org := range figures.Fig7Orgs() {
		r := base("4-MEM")
		r.Channels, r.Gang = org.Phys, org.Gang
		seeds = append(seeds, r)
	}
	for _, kind := range []core.DRAMKind{core.DDR, core.RDRAM} {
		for _, s := range []addrmap.Scheme{addrmap.Page, addrmap.XOR} {
			r := base("4-MEM")
			r.DRAM, r.Scheme = kind.String(), s.String()
			seeds = append(seeds, r)
		}
	}
	for _, p := range memctrl.Policies() {
		r := base("4-MEM")
		r.Policy = p.String()
		seeds = append(seeds, r)
	}
	// Close page and a fault plan, which the catalog never asks for.
	r := base("2-MEM")
	r.PageMode = dram.ClosePage.String()
	seeds = append(seeds, r)
	r = base("2-MEM")
	r.Faults = "drop:rate=0.3,seed=3"
	seeds = append(seeds, r)
	return seeds
}

// FuzzConfig holds the termination contract: any request whose configuration
// passes Validate ends in a Result, a TimedOut Result or a *NoProgressError,
// never a panic or another error — and ends the same way ticking every cycle
// and restored from its warmup checkpoint.
func FuzzConfig(f *testing.F) {
	for _, r := range fuzzSeeds() {
		var w, tg uint16
		if r.Warmup != nil {
			w, tg = uint16(*r.Warmup), uint16(*r.Target)
		}
		f.Add(r.Mix, strings.Join(r.Apps, ","), r.Channels, r.Gang, r.DRAM, r.Scheme, r.PageMode,
			r.Policy, r.Fetch, w, tg, int64(42), r.Faults, uint32(fuzzBudget-1), uint16(0))
	}
	// A watchdog tighter than a DRAM miss; a budget that ends in the measured
	// window; one that ends before any thread commits.
	f.Add("2-MEM", "", 0, 0, "", "", "", "", "", uint16(500), uint16(1_000), int64(7), "", uint32(fuzzBudget-1), uint16(300))
	f.Add("2-MEM", "", 0, 0, "", "", "", "", "", uint16(2_000), uint16(2_000), int64(7), "", uint32(30_000), uint16(0))
	f.Add("2-MEM", "", 0, 0, "", "", "", "", "", uint16(500), uint16(1_000), int64(7), "", uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, mix, apps string, channels, gang int, kind, scheme, page, policy, fetch string,
		warmup, target uint16, seed int64, faults string, budget uint32, watchdog uint16) {
		w, tg := uint64(warmup)%(fuzzInstr+1), uint64(target)%(fuzzInstr+1)
		req := server.SimRequest{
			Mix: mix, Channels: channels, Gang: gang, DRAM: kind, Scheme: scheme, PageMode: page,
			Policy: policy, Fetch: fetch, Warmup: &w, Target: &tg, Seed: &seed, Faults: faults,
		}
		if apps != "" {
			req.Apps = strings.Split(apps, ",")
		}
		cfg, err := req.Config() // resolves the names, then Validate
		if err != nil {
			return
		}
		cfg.MaxCycles = 1 + uint64(budget)%fuzzBudget
		cfg.WatchdogCycles = uint64(watchdog) // 0 is the default window
		checkTerminates(t, cfg)
	})
}

// checkTerminates runs cfg skipping, ticking every cycle and — when it
// checkpoints — from its warmup frame, and holds all three to one outcome.
func checkTerminates(t *testing.T, cfg core.Config) {
	t.Helper()
	want := outcome(t, "skipping", cfg, func() (core.Result, error) { return core.Run(cfg) })
	tick := cfg
	tick.DisableClockSkip = true
	if got := outcome(t, "every cycle", cfg, func() (core.Result, error) { return core.Run(tick) }); got != want {
		t.Fatalf("%s\nskipping:    %s\nevery cycle: %s", cfg.Fingerprint(), want, got)
	}
	if core.CheckpointSupported(cfg) != nil {
		return
	}
	ctx := context.Background()
	chk, err := core.WarmupCheckpoint(ctx, cfg)
	if errors.Is(err, core.ErrWarmupBudget) {
		// The budget ends inside warmup, so the plain run timed out there.
		var res core.Result
		if json.Unmarshal([]byte(want), &res) != nil || !res.TimedOut {
			t.Fatalf("%s: no warmup frame within the budget, but the run ended %s", cfg.Fingerprint(), want)
		}
		return
	}
	got := outcome(t, "restored", cfg, func() (core.Result, error) {
		if err != nil { // the watchdog tripped inside warmup
			return core.Result{}, err
		}
		return core.RunFromCheckpoint(ctx, cfg, chk)
	})
	if got != want {
		t.Fatalf("%s\nskipping: %s\nrestored: %s", cfg.Fingerprint(), want, got)
	}
}

// outcome runs one simulation and reduces its ending to comparable text: the
// Result's JSON bytes, or the *NoProgressError's message. Any other error
// fails the test.
func outcome(t *testing.T, how string, cfg core.Config, run func() (core.Result, error)) string {
	t.Helper()
	res, err := run()
	var np *core.NoProgressError
	switch {
	case errors.As(err, &np):
		return "no progress: " + np.Error()
	case err != nil:
		t.Fatalf("%s: %s run ended in %v, not a Result or a *NoProgressError", cfg.Fingerprint(), how, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
