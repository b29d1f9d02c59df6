package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smtdram/internal/cpu"
	"smtdram/internal/faults"
	"smtdram/internal/workload"
)

// faultyCfg is fastCfg plus a fault plan.
func faultyCfg(plan *faults.Plan, apps ...string) Config {
	cfg := fastCfg(apps...)
	cfg.Faults = plan
	return cfg
}

func TestValidateRejectsBadFaultPlan(t *testing.T) {
	// A drop rate above 1 must be rejected before the machine is even built.
	cfg := faultyCfg(&faults.Plan{DropRate: 1.5}, "mcf")
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a drop rate above 1")
	}
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("NewSimulator accepted a drop rate above 1")
	}
}

func TestSeededFaultPlanDeterminism(t *testing.T) {
	plan := &faults.Plan{DropRate: 1e-3, Seed: 7}
	run := func() Result {
		res, err := Run(faultyCfg(plan, "mcf", "art"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same seeded fault plan diverged:\n%+v\n%+v", a, b)
	}
	if a.Faults == nil || a.Faults.Drops == 0 {
		t.Fatalf("fault plan injected nothing: %+v", a.Faults)
	}
}

func TestFaultAccountingExact(t *testing.T) {
	plan := &faults.Plan{DropRate: 5e-3, Seed: 11}
	res, err := Run(faultyCfg(plan, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f == nil {
		t.Fatal("no fault report on a faulty run")
	}
	// Every drop is either retried or given up on, exactly once.
	if f.Drops == 0 || f.Drops != f.Retries+f.RetryGiveUps {
		t.Fatalf("accounting: %d drops != %d retried + %d gave up", f.Drops, f.Retries, f.RetryGiveUps)
	}
}

// stuckSource emits instructions that never complete, livelocking the core.
type stuckSource struct{}

func (stuckSource) Next() workload.Instr {
	return workload.Instr{Kind: workload.IntOp, Lat: 1 << 31}
}

func TestWatchdogAbortsLivelock(t *testing.T) {
	cfg := fastCfg("stuck")
	cfg.Sources = []cpu.Source{stuckSource{}}
	cfg.MaxCycles = 50_000_000
	cfg.WatchdogCycles = 20_000
	_, err := Run(cfg)
	var npe *NoProgressError
	if !errors.As(err, &npe) {
		t.Fatalf("livelocked run returned %v, want *NoProgressError", err)
	}
	if npe.Committed != 0 || npe.Window != 20_000 {
		t.Fatalf("watchdog error = %+v", npe)
	}
	// The whole point: abort well under the MaxCycles budget.
	if npe.Cycle > 100_000 {
		t.Fatalf("watchdog fired at cycle %d, far beyond its 20000-cycle window", npe.Cycle)
	}
}

func TestWarmupTimeoutColdWindow(t *testing.T) {
	cfg := fastCfg("mcf")
	cfg.WarmupInstr = 1 << 40 // never warms up
	cfg.MaxCycles = 100_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("run that never warmed up must report TimedOut")
	}
	// Cold-window fallback: the measurement window is the whole run.
	if res.Cycles < 100_000 {
		t.Fatalf("cold window covers %d cycles, want the full 100000", res.Cycles)
	}
	if res.IPC[0] <= 0 {
		t.Fatal("cold window must still report partial IPC")
	}
}

func TestConfigFingerprint(t *testing.T) {
	cfg := faultyCfg(&faults.Plan{DropRate: 1e-6, Seed: 9}, "mcf", "art")
	fp := cfg.Fingerprint()
	for _, want := range []string{"mcf+art", "seed=42", "fetch=", "faults=drop:rate=1e-06;seed:v=9"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint %q missing %q", fp, want)
		}
	}
	if plain := fastCfg("mcf").Fingerprint(); strings.Contains(plain, "faults=") {
		t.Fatalf("fault-free fingerprint mentions faults: %q", plain)
	}
	// The fetch policy changes results (the paper's main variable), and the
	// daemon keys its result cache on the fingerprint — two configs differing
	// only in fetch policy must not collide.
	icount := fastCfg("mcf")
	icount.CPU.Policy = cpu.ICOUNT
	if fastCfg("mcf").Fingerprint() == icount.Fingerprint() {
		t.Fatalf("fingerprint ignores the fetch policy: %q", icount.Fingerprint())
	}
}
