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
	// The default machine has 2 logical channels; failing channel 5 is out of
	// range and must be rejected before the machine is even built.
	cfg := faultyCfg(&faults.Plan{ChannelFail: &faults.ChannelFail{Channel: 5, At: 1000}}, "mcf")
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a channel-fail clause outside the geometry")
	}
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("NewSimulator accepted a channel-fail clause outside the geometry")
	}
	cfg = faultyCfg(&faults.Plan{BitFlipRate: 1.5}, "mcf")
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a bit-flip rate above 1")
	}
}

func TestSeededFaultPlanDeterminism(t *testing.T) {
	plan := &faults.Plan{BitFlipRate: 1e-2, DropRate: 1e-3, Seed: 7}
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
	if a.Faults == nil || a.Faults.Injected == 0 {
		t.Fatalf("fault plan injected nothing: %+v", a.Faults)
	}
}

func TestFaultAccountingExact(t *testing.T) {
	plan := &faults.Plan{BitFlipRate: 5e-2, DropRate: 5e-3, Seed: 11}
	res, err := Run(faultyCfg(plan, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f == nil {
		t.Fatal("no fault report on a faulty run")
	}
	if f.Injected != f.Corrected+f.Uncorrected+f.Drops {
		t.Fatalf("accounting: injected %d != corrected %d + uncorrected %d + dropped %d",
			f.Injected, f.Corrected, f.Uncorrected, f.Drops)
	}
	if f.BitFlips == 0 || f.BitFlips != f.Corrected {
		t.Fatalf("every single-bit flip must be corrected: %+v", f)
	}
	if f.Detected != f.Corrected+f.Uncorrected {
		t.Fatalf("ECC detected %d != corrected %d + uncorrected %d", f.Detected, f.Corrected, f.Uncorrected)
	}
	if res.Failover != nil {
		t.Fatal("failover report without a channel-fail clause")
	}
}

func TestChannelFailRunCompletesViaFailover(t *testing.T) {
	plan := &faults.Plan{ChannelFail: &faults.ChannelFail{Channel: 1, At: 40_000}}
	res, err := Run(faultyCfg(plan, "mcf", "art"))
	if err != nil {
		t.Fatalf("channel-fail run must complete via failover, got %v", err)
	}
	rep := res.Failover
	if rep == nil {
		t.Fatal("no failover report after a planned channel failure")
	}
	if rep.FailedChannel != 1 || rep.AtCycle < 40_000 {
		t.Fatalf("failover report = %+v, want channel 1 at ≥40000", rep)
	}
	if rep.PreIPC <= 0 || rep.PostIPC <= 0 {
		t.Fatalf("failover report missing IPC on one side: %+v", rep)
	}
	if rep.PreAvgReadLat <= 0 || rep.PostAvgReadLat <= 0 {
		t.Fatalf("failover report missing latency on one side: %+v", rep)
	}
	// Losing half the DRAM system must not come for free.
	if rep.PostAvgReadLat <= rep.PreAvgReadLat {
		t.Errorf("read latency did not degrade after losing a channel: %+v", rep)
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
	cfg := faultyCfg(&faults.Plan{BitFlipRate: 1e-6, Seed: 9}, "mcf", "art")
	fp := cfg.Fingerprint()
	for _, want := range []string{"mcf+art", "seed=42", "fetch=", "bitflip"} {
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
