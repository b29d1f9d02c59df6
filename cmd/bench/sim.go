package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"smtdram/internal/addrmap"
	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// sizes are the knobs that set how long a run takes. defaultSizes is what
// BENCHMARK.json's run_seconds was chosen for; the tests run the same code at
// a fraction of it.
type sizes struct {
	ilpWarmup, ilpTarget     uint64 // per-thread instructions, ilp8
	memWarmup, memTarget     uint64 // mem8 and mem8_rdram_close
	sweepWarmup, sweepTarget uint64 // fig10_sweep
	serveWarmup, serveTarget uint64 // serve_fleet pool jobs
	perMix                   int    // serve_fleet: pool jobs per Table 2 mix (6 mixes)
	warmRequests             int    // serve_fleet: cache-hit requests across the run
	setups                   int    // set-up repetitions (median reported)
	minReps                  int    // simulation workloads: cold/warm pairs
	minCycles                int    // serve_fleet: fleet lifetimes
}

// The ISSUE sized the workloads for a 20-28 s measured run at 3-6 s a rep; the
// contract's cap (all runs of all workloads inside 3420 s, set-up included and
// repeated) leaves under 30 s for a whole run and a steady median wants many
// reps, so the sizes are cut and the workloads, the grid and the five-rep
// floor are kept.
var defaultSizes = sizes{
	ilpWarmup: 30_000, ilpTarget: 15_000,
	memWarmup: 10_000, memTarget: 20_000,
	sweepWarmup: 4_000, sweepTarget: 4_000,
	serveWarmup: 6_000, serveTarget: 6_000,
	perMix:       8,
	warmRequests: 3000,
	setups:       3,
	minReps:      5,
	minCycles:    3,
}

// simConfig builds the machine of one simulation workload. The seed is the
// only input that varies between runs; it becomes Config.Seed.
func simConfig(name string, seed int64, sz sizes) (core.Config, error) {
	mixName := "8-MEM"
	if name == "ilp8" {
		mixName = "8-ILP"
	}
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(mix.Apps...)
	cfg.Seed = seed
	cfg.WarmupInstr, cfg.TargetInstr = sz.memWarmup, sz.memTarget
	switch name {
	case "ilp8":
		// 8-ILP is the core-only workload only once its caches are warm:
		// the compulsory misses of a short warm-up would put the memory path
		// back into the measurement.
		cfg.WarmupInstr, cfg.TargetInstr = sz.ilpWarmup, sz.ilpTarget
	case "mem8":
		cfg.Mem.Policy = memctrl.RequestBased
	case "mem8_rdram_close":
		cfg.Mem.Kind = core.RDRAM
		cfg.Mem.PageMode = dram.ClosePage
		cfg.Mem.Scheme = addrmap.Page
		cfg.Mem.Policy = memctrl.FCFS
	default:
		return core.Config{}, fmt.Errorf("bench: %q is not a simulation workload", name)
	}
	return cfg, cfg.Validate()
}

// runPlain is the path a researcher waits on: core.NewSimulator + Run. Beside
// the Result it reports the clock's skip statistics and how many instructions
// the whole run committed, warm-up included — the work its wall time paid
// for. (Result.Committed covers the measured window only.)
func runPlain(cfg core.Config) (res core.Result, skip obs.SkipStats, work float64, err error) {
	s, err := core.NewSimulator(cfg)
	if err != nil {
		return res, skip, 0, err
	}
	res, err = s.Run()
	return res, s.SkipStats(), float64(s.Progress(0).Committed), err
}

// nominalInstr is the simulated work of a set of configurations had every
// thread stopped exactly at its target: threads × target per job, plus
// threads × warm-up when the warm-up is simulated too.
func nominalInstr(cfgs []core.Config, withWarmup bool) float64 {
	var n uint64
	for _, c := range cfgs {
		per := c.TargetInstr
		if withWarmup {
			per += c.WarmupInstr
		}
		n += uint64(len(c.Apps)) * per
	}
	return float64(n)
}

// machineBytes is what constructing the simulators of cfgs allocates, one
// after another (TotalAlloc counts every goroutine).
func machineBytes(cfgs []core.Config) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range cfgs {
		if _, err := core.NewSimulator(c); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), nil
}

func sumU64(v []uint64) (s uint64) {
	for _, x := range v {
		s += x
	}
	return s
}

// simSetup is everything before the first timed sample of a simulation
// workload: the machine description and the every-cycle reference run whose
// bytes the two-speed clock must reproduce (it doubles as the un-timed
// warm-up rep).
type simSetup struct {
	cfg  core.Config
	ref  []byte
	work float64 // instructions the reference run executed
}

func setupSim(name string, seed int64, sz sizes) (simSetup, error) {
	var su simSetup
	var err error
	if su.cfg, err = simConfig(name, seed, sz); err != nil {
		return su, err
	}
	noskip := su.cfg
	noskip.DisableClockSkip = true
	var res core.Result
	if res, _, su.work, err = runPlain(noskip); err != nil {
		return su, err
	}
	su.ref, err = json.Marshal(res)
	return su, err
}

// sameResult is the correctness check of every rep: the Result's JSON must be
// the reference bytes.
func sameResult(res core.Result, ref []byte) bool {
	b, err := json.Marshal(res)
	return err == nil && bytes.Equal(b, ref)
}

// subSeed derives the i-th simulation seed of a run. Rep i of a simulation
// workload runs on its own seed: one draw allocates 5-10% more or fewer bytes
// per instruction than the next, and the median over a run's draws is what
// repeats from run to run.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runSimTimed measures one simulation workload with tracing off. Its job set
// is one simulation: a cold pass is NewSimulator+Run, a warm pass is the same
// run forked from its warm-up checkpoint through a checkpoint.Cache, the way
// a sweep forks it. Every rep draws a fresh sub-seed, fills the cache un-timed,
// and must produce the same bytes on both paths; rep 0 must also match the
// every-cycle run of the set-up.
func runSimTimed(name string, seed int64, budget time.Duration, sz sizes, rec *runRecord) error {
	var su simSetup
	err := rec.repeatSetup(sz.setups, func() (work, nominal float64, err error) {
		su, err = setupSim(name, subSeed(seed, 0), sz)
		return su.work, nominalInstr([]core.Config{su.cfg}, true), err
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	one := []core.Config{su.cfg}
	js := jobSet{jobs: 1, nominalCold: nominalInstr(one, true), nominalWarm: nominalInstr(one, false)}
	// The machine's shape does not depend on the sub-seed a rep draws.
	if js.machineBytes, err = machineBytes(one); err != nil {
		return err
	}
	ph := newPhase(budget)
	for i := 0; ph.more(i, sz.minReps); i++ {
		cfg, err := simConfig(name, subSeed(seed, i), sz)
		if err != nil {
			return err
		}
		ckpts := checkpoint.New()
		if _, err := ckpts.Get(ctx, cfg); err != nil {
			return err
		}
		var res, fres core.Result
		var work float64
		p, err := measure(func() (err error) {
			res, _, work, err = runPlain(cfg)
			return err
		})
		if err != nil {
			return err
		}
		p.Work = work
		js.cold = append(js.cold, p)
		cold, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if i == 0 {
			rec.check(bytes.Equal(cold, su.ref), "%s rep 0: Result differs from the every-cycle reference run", name)
		}

		w, err := measure(func() (err error) {
			fres, err = ckpts.Run(ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		rec.check(sameResult(fres, cold), "%s rep %d: the forked Result differs from the uninterrupted one", name, i)
		w.Work = float64(sumU64(fres.Committed))
		js.warm = append(js.warm, w)
		js.warmJobMs = append(js.warmJobMs, w.Wall*scaleTo(js.nominalWarm, w.Work)*1e3)
	}
	rec.setJobSet(js)
	return nil
}
