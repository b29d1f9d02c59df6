package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/figures"
	"smtdram/internal/memctrl"
)

// fig10_sweep: the figure a user waits for. One sweep is figures.Fig10 —
// six schedulers on six mixes plus the twelve alone-IPC baselines — at
// Jobs = nproc, with a fresh Baselines memo each time so no sweep inherits
// simulations from the one before. Cold passes no checkpoint cache; warm
// forks every simulation from a cache a set-up pass filled.

// grid reconstructs the simulations a Fig 10 sweep runs. Fig10 returns
// weighted speedups, not its configurations, so the Options.Configure hook
// (which leaves each config as it found it) records the base machines — one
// per mix, one per alone-IPC baseline — and points expands every mix by the
// scheduling policies Fig10 applies after the hook. The fill pass checks the
// count against the checkpoint cache's own fork counter, so a change to
// Fig10's grid cannot go unnoticed here.
type grid struct {
	base []core.Config
	seen map[string]bool
}

func (g *grid) note(cfg *core.Config) {
	if fp := cfg.Fingerprint(); !g.seen[fp] {
		if g.seen == nil {
			g.seen = map[string]bool{}
		}
		g.seen[fp] = true
		g.base = append(g.base, *cfg)
	}
}

func (g *grid) points() []core.Config {
	var out []core.Config
	for _, c := range g.base {
		if len(c.Apps) == 1 {
			out = append(out, c)
			continue
		}
		for _, pol := range memctrl.Policies() {
			c.Mem.Policy = pol
			out = append(out, c)
		}
	}
	return out
}

func sweepOptions(seed int64, sz sizes, ckpts *checkpoint.Cache, g *grid) figures.Options {
	o := figures.Options{
		Warmup: sz.sweepWarmup, Target: sz.sweepTarget, Seed: seed,
		Jobs:        runtime.GOMAXPROCS(0),
		Baselines:   map[string]float64{},
		Checkpoints: ckpts,
	}
	if g != nil {
		o.Configure = g.note
	}
	return o
}

// sweepSetup is the un-timed fill pass: a sweep that captures every warm-up
// checkpoint, whose rows are the reference every timed sweep must equal.
type sweepSetup struct {
	cache  *checkpoint.Cache
	rows   []figures.Fig10Cell
	points []core.Config
	// Instructions one sweep simulates: all of them (cold), the measured
	// windows only (warm).
	coldWork, warmWork float64
}

// countWork finds out how many instructions one sweep simulates — Fig10 does
// not say — by forking every grid point from the filled cache once more and
// reading its counters: all commits for a cold sweep, the measured window's
// for a warm one.
func (su *sweepSetup) countWork() error {
	totals := make([]float64, len(su.points))
	measured := make([]float64, len(su.points))
	err := parallelFor(len(su.points), func(i int) error {
		chk, err := su.cache.Get(context.Background(), su.points[i])
		if err != nil {
			return err
		}
		sim, err := core.NewCheckpointedSimulator(su.points[i], chk)
		if err != nil {
			return err
		}
		res, err := sim.Run()
		totals[i] = float64(sim.Progress(0).Committed)
		measured[i] = float64(sumU64(res.Committed))
		return err
	})
	for i := range totals {
		su.coldWork += totals[i]
		su.warmWork += measured[i]
	}
	return err
}

func setupSweep(seed int64, sz sizes) (sweepSetup, error) {
	su := sweepSetup{cache: checkpoint.New()}
	var g grid
	var err error
	if su.rows, err = figures.Fig10(sweepOptions(seed, sz, su.cache, &g)); err != nil {
		return su, err
	}
	su.points = g.points()
	if forks := su.cache.Snapshot().Forks; forks != uint64(len(su.points)) {
		return su, fmt.Errorf("fig10 ran %d simulations, the reconstructed grid has %d", forks, len(su.points))
	}
	return su, su.countWork()
}

func runSweepTimed(seed int64, budget time.Duration, sz sizes, rec *runRecord) error {
	var su sweepSetup
	err := rec.repeatSetup(sz.setups, func() (work, nominal float64, err error) {
		su, err = setupSweep(seed, sz)
		// The fill pass simulates the grid once, the count another measured
		// window each.
		return su.coldWork + su.warmWork, nominalInstr(su.points, true) + nominalInstr(su.points, false), err
	})
	if err != nil {
		return err
	}

	js := jobSet{jobs: len(su.points), nominalCold: nominalInstr(su.points, true), nominalWarm: nominalInstr(su.points, false)}
	if js.machineBytes, err = machineBytes(su.points); err != nil {
		return err
	}
	sweep := func(kind string, ckpts *checkpoint.Cache) error {
		var rows []figures.Fig10Cell
		p, err := measure(func() (err error) {
			rows, err = figures.Fig10(sweepOptions(seed, sz, ckpts, nil))
			return err
		})
		if err != nil {
			return err
		}
		rec.check(reflect.DeepEqual(rows, su.rows), "fig10 %s sweep: rows differ from the fill pass", kind)
		if ckpts == nil {
			p.Work = su.coldWork
			js.cold = append(js.cold, p)
		} else {
			p.Work = su.warmWork
			js.warm = append(js.warm, p)
			// One result from the warm tier: a simulation forked from its
			// checkpoint, nproc of them at a time.
			perJob := p.Wall * scaleTo(js.nominalWarm, su.warmWork) * float64(runtime.GOMAXPROCS(0)) / float64(js.jobs)
			js.warmJobMs = append(js.warmJobMs, perJob*1e3)
		}
		return nil
	}
	// Cold ×2 and warm ×3 at least, interleaved so drift hits both alike;
	// then cold/warm pairs while another pair fits the budget.
	ph := newPhase(budget)
	for i := 0; ph.more(i, 3); i++ {
		if i != 2 {
			if err := sweep("cold", nil); err != nil {
				return err
			}
		}
		if err := sweep("warm", su.cache); err != nil {
			return err
		}
	}
	rec.setJobSet(js)
	return nil
}

// runSweepTraced is the traced run of fig10_sweep: what makes a sweep more
// than 48 calls to core.Run — the runner's fan-out, the warm-up share a
// checkpoint removes, what capture and restore cost — then the simulator's
// and the serving layers on one grid point.
func runSweepTraced(seed int64, sz sizes, rec *runRecord) error {
	su, err := setupSweep(seed, sz)
	if err != nil {
		return err
	}
	filled := su.cache.Snapshot()

	var rows []figures.Fig10Cell
	t := time.Now()
	if rows, err = figures.Fig10(sweepOptions(seed, sz, nil, nil)); err != nil {
		return err
	}
	cold := time.Since(t)
	rec.check(reflect.DeepEqual(rows, su.rows), "fig10 cold sweep: rows differ from the fill pass")
	if rows, err = figures.Fig10(sweepOptions(seed, sz, su.cache, nil)); err != nil {
		return err
	}
	rec.check(reflect.DeepEqual(rows, su.rows), "fig10 warm sweep: rows differ from the cold rows")
	setCheckpointDelta(rec, filled, su.cache.Snapshot())

	tf := newTraceFile("fig10_sweep", seed)
	serial, err := memoLayers(su.points, rec, tf)
	if err != nil {
		return err
	}
	setEfficiency(rec, serial, cold)

	// The probe job: the grid's first multi-threaded point.
	var probe core.Config
	for _, c := range su.points {
		if len(c.Apps) > 1 {
			probe = c
			break
		}
	}
	noskip := probe
	noskip.DisableClockSkip = true
	res, _, _, err := runPlain(noskip)
	if err != nil {
		return err
	}
	j, err := newJob(probe)
	if err != nil {
		return err
	}
	if j.ref, err = json.Marshal(res); err != nil {
		return err
	}
	if _, err := simLayers(probe, j.ref, rec, tf); err != nil {
		return err
	}
	if _, err := serveLayers([]job{j}, sz, rand.New(rand.NewSource(seed)), rec, tf); err != nil {
		return err
	}
	return tf.write(rec)
}
