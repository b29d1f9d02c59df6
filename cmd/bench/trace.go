package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/obs"
)

// A traced run measures every layer on every workload, so that no per-layer
// time is a blank anywhere: the simulator's layers on the workload's probe
// job (for a simulation workload, its one job), the memoization layers on its
// whole job set, the serving layers on the jobs it can submit. The workload's
// own traced driver adds what only it can measure (the Fig 10 sweeps, the
// full pool's passes).

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Schema   string   `json:"schema"`
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Note     string   `json:"note"`
	// Spans are the per-(rep, layer) aggregates of the probe job's twin runs.
	Spans []traceSpan `json:"spans"`
	// Memo has one entry per job of the set, run serially in pieces.
	Memo struct {
		WarmupS         []float64 `json:"warmup_s"`
		MeasureMs       []float64 `json:"measure_ms"`
		RestoreMs       []float64 `json:"restore_ms"`
		CheckpointBytes []float64 `json:"checkpoint_bytes"`
	} `json:"memo"`
	// Serve holds the served requests' latencies in ms, sorted.
	Serve struct {
		Jobs       int       `json:"jobs"`
		TailPctile float64   `json:"tail_pctile"`
		WarmMs     []float64 `json:"warm_ms"`
		DirectMs   []float64 `json:"direct_ms"`
		RestartMs  []float64 `json:"restart_ms"`
	} `json:"serve"`
}

type traceSpan struct {
	Rep     int     `json:"rep"`
	Layer   string  `json:"layer"`
	Calls   uint64  `json:"calls"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	WallNs  int64   `json:"rep_wall_ns"`
	Share   float64 `json:"self_share"`
}

func newTraceFile(workload string, seed int64) *traceFile {
	return &traceFile{Schema: "smtdram-bench-trace/1", Host: readHost(), Workload: workload, Seed: seed,
		Note: "spans: self_ns = total_ns minus the time child spans covered and minus the shims' own clock reads " +
			"(their sum is the bench.shim_clock_reads row), one row per (rep, layer) of the probe job's twin. " +
			"memo: one entry per job, run serially: warm-up+capture, restore, measure. " +
			"serve: latencies in ms, sorted. Times are as measured on this host. " + modelNote}
}

func (tf *traceFile) write(rec *runRecord) error {
	path, err := writeOut(fmt.Sprintf("trace-%s-seed%d.json", tf.Workload, tf.Seed), tf)
	rec.TraceFile = path
	return err
}

// tracedReps is how many times simLayers repeats its five machines — bare,
// every-cycle, observed, plain twin, traced twin. They run back to back
// inside a rep so that each ratio compares neighbours in time, and the
// reported figures are medians over the reps.
const tracedReps = 2

// runObserved is the run smtdramd performs: the daemon's Progress observer
// attached, marshalling a sample every 10 000 cycles.
func runObserved(cfg core.Config) (core.Result, error) {
	var sim *core.Simulator
	ob := &obs.Observer{ProgressInterval: 10_000}
	ob.Progress = func(now uint64) {
		if sim != nil {
			_, _ = json.Marshal(sim.Progress(now))
		}
	}
	cfg.Observe = func() *obs.Observer { return ob }
	var err error
	if sim, err = core.NewSimulator(cfg); err != nil {
		return core.Result{}, err
	}
	return sim.Run()
}

// simLayers attributes one simulation's host time to the simulator's layers.
// ref is the Result JSON of the every-cycle run of cfg. It returns the bare
// run's wall time.
func simLayers(cfg core.Config, ref []byte, rec *runRecord, tf *traceFile) (time.Duration, error) {
	noskipCfg := cfg
	noskipCfg.DisableClockSkip = true
	timed := func(run func() (core.Result, error), what string) (core.Result, time.Duration, error) {
		t := time.Now()
		res, err := run()
		wall := time.Since(t)
		if err == nil {
			rec.check(sameResult(res, ref), "%s Result differs from the every-cycle reference run", what)
		}
		return res, wall, err
	}

	var bares, nsPerCycle, noskipRatio, observerTax, tickNs, runNs, lowerNs, enqNs, overhead, memShare []float64
	var res core.Result
	var skip obs.SkipStats
	var last *twin
	var lastRes twinResult
	for rep := 0; rep < tracedReps; rep++ {
		var bare time.Duration
		var err error
		if res, bare, err = timed(func() (r core.Result, err error) {
			r, skip, _, err = runPlain(cfg)
			return r, err
		}, "bare"); err != nil {
			return 0, err
		}
		_, noskip, err := timed(func() (r core.Result, err error) {
			r, _, _, err = runPlain(noskipCfg)
			return r, err
		}, "every-cycle")
		if err != nil {
			return 0, err
		}
		_, observed, err := timed(func() (core.Result, error) { return runObserved(cfg) }, "observed")
		if err != nil {
			return 0, err
		}
		bares = append(bares, float64(bare))
		nsPerCycle = append(nsPerCycle, float64(bare.Nanoseconds())/float64(skip.Wall))
		noskipRatio = append(noskipRatio, float64(noskip)/float64(bare))
		observerTax = append(observerTax, float64(observed)/float64(bare))

		// The twin without shims, then with them.
		plainTwin, err := newTwin(cfg, nil)
		if err != nil {
			return 0, err
		}
		ptr, err := plainTwin.run()
		if err != nil {
			return 0, err
		}
		err = ptr.matches(res)
		rec.check(err == nil, "untraced twin: %v", err)

		acc := newSpanAcc()
		tw, err := newTwin(cfg, acc)
		if err != nil {
			return 0, err
		}
		tr, err := tw.run()
		if err != nil {
			return 0, err
		}
		err = tr.matches(res)
		rec.check(err == nil, "traced twin rep %d: %v", rep, err)
		gap := float64(tr.Wall-acc.selfSum()) / float64(tr.Wall)
		rec.check(gap > -0.02 && gap < 0.02, "layer self times miss the twin's wall by %.1f%%", gap*100)
		for l := layer(0); l < nLayers; l++ {
			tf.Spans = append(tf.Spans, traceSpan{Rep: rep, Layer: layerNames[l], Calls: acc.calls[l],
				TotalNs: acc.total[l].Nanoseconds(), SelfNs: acc.self[l].Nanoseconds(),
				WallNs: tr.Wall.Nanoseconds(), Share: float64(acc.self[l]) / float64(tr.Wall)})
		}
		tf.Spans = append(tf.Spans, traceSpan{Rep: rep, Layer: "bench.shim_clock_reads", TotalNs: acc.shim.Nanoseconds(),
			SelfNs: acc.shim.Nanoseconds(), WallNs: tr.Wall.Nanoseconds(), Share: float64(acc.shim) / float64(tr.Wall)})
		cyc := float64(tr.TotalCycles)
		tickNs = append(tickNs, float64(acc.self[lTick])/cyc)
		runNs = append(runNs, float64(acc.self[lRunUntil])/cyc)
		lower := acc.self[lL1L2] + acc.self[lL2L3] + acc.self[lL3Mem]
		if calls := acc.calls[lL1L2] + acc.calls[lL2L3] + acc.calls[lL3Mem]; calls > 0 {
			lowerNs = append(lowerNs, float64(lower)/float64(calls))
		}
		if c := acc.calls[lEnqueue]; c > 0 {
			enqNs = append(enqNs, float64(acc.self[lEnqueue])/float64(c))
		}
		overhead = append(overhead, float64(tr.Wall)/float64(ptr.Wall))
		memShare = append(memShare, float64(lower+acc.self[lEnqueue])/float64(tr.Wall))
		last, lastRes = tw, tr
	}

	// Batch drivers over the stream the last traced twin recorded.
	ctrlNs, err := replayMemctrl(cfg, last.trace)
	if err != nil {
		return 0, err
	}
	dramNs, err := replayDRAM(cfg, last.trace)
	if err != nil {
		return 0, err
	}
	mapNs, err := replayAddrmap(cfg, last.trace)
	if err != nil {
		return 0, err
	}
	nextNs, instrs, err := replayWorkload(cfg, lastRes.Generated)
	if err != nil {
		return 0, err
	}
	// The controller's event-driven half runs inside RunUntil where no shim
	// can separate it; the replay figure stands in for it in the share.
	replayShare := ctrlNs * float64(len(last.trace)) / float64(lastRes.Wall.Nanoseconds())

	acc := last.acc
	rec.setValue("workload.next_ns_per_instr", nextNs)
	rec.setValue("workload.instrs", float64(instrs))
	rec.set("cpu.tick_self_ns_per_cycle", tickNs)
	rec.setValue("cpu.ipc", float64(sumU64(res.Committed))/float64(res.Cycles))
	rec.setValue("cpu.squashes", float64(sumU64(res.Squashes)))
	rec.set("event.rununtil_self_ns_per_cycle", runNs)
	rec.setValue("event.fired_per_cycle", float64(lastRes.Fired)/float64(lastRes.TotalCycles))
	rec.setValue("event.max_pending", float64(lastRes.MaxPending))
	rec.set("cache.lower_self_ns_per_call", lowerNs)
	rec.setValue("cache.lower_calls", float64(acc.calls[lL1L2]+acc.calls[lL2L3]+acc.calls[lL3Mem]))
	for _, c := range res.Caches {
		switch c.Name {
		case "L1D":
			rec.setValue("cache.l1d_miss_rate", c.MissRate)
		case "L2":
			rec.setValue("cache.l2_miss_rate", c.MissRate)
		case "L3":
			rec.setValue("cache.l3_miss_rate", c.MissRate)
		}
	}
	rec.set("memctrl.enqueue_ns_per_req", enqNs)
	if c := acc.calls[lEnqueue]; c > 0 {
		rec.setValue("memctrl.reject_share", float64(last.cshim.refused)/float64(c))
	}
	rec.setValue("memctrl.replay_ns_per_req", ctrlNs)
	rec.setValue("memctrl.avg_read_latency_cycles", res.AvgReadLatency)
	rec.setValue("dram.access_ns", dramNs)
	rec.setValue("dram.row_miss_rate", res.RowBufferMissRate)
	rec.setValue("dram.row_hits", float64(res.RowHits))
	rec.setValue("dram.row_conflicts", float64(res.RowConflicts))
	rec.setValue("addrmap.map_ns", mapNs)
	rec.setValue("core.sim_cycles", float64(res.Cycles))
	rec.setValue("core.skiprate", skip.Rate())
	rec.setValue("core.skip_segments", float64(skip.Segments))
	rec.set("core.ns_per_simcycle", nsPerCycle)
	rec.set("core.noskip_ratio", noskipRatio)
	rec.set("obs.observer_tax", observerTax)
	rec.set("bench.trace_overhead", overhead)
	rec.setValue("bench.mem_path_share", median(memShare)+replayShare)
	return time.Duration(median(bares)), nil
}

// memoLayers runs every job of a set once more, serially and in pieces —
// warm-up + capture, restore, measure — for what a warm-up checkpoint saves
// and costs. It returns the serial time of the set (warm-up + measure).
func memoLayers(points []core.Config, rec *runRecord, tf *traceFile) (time.Duration, error) {
	m := &tf.Memo
	var serial time.Duration
	var warmupSum float64
	for _, cfg := range points {
		t := time.Now()
		chk, err := core.WarmupCheckpoint(context.Background(), cfg)
		if err != nil {
			return 0, err
		}
		w := time.Since(t)
		t = time.Now()
		sim, err := core.NewCheckpointedSimulator(cfg, chk)
		if err != nil {
			return 0, err
		}
		r := time.Since(t)
		t = time.Now()
		if _, err := sim.Run(); err != nil {
			return 0, err
		}
		run := time.Since(t)
		serial += w + run
		warmupSum += w.Seconds()
		m.WarmupS = append(m.WarmupS, w.Seconds())
		m.MeasureMs = append(m.MeasureMs, run.Seconds()*1e3)
		m.RestoreMs = append(m.RestoreMs, r.Seconds()*1e3)
		m.CheckpointBytes = append(m.CheckpointBytes, float64(len(chk.Data)))
	}
	rec.setValue("core.warmup_share", warmupSum/serial.Seconds())
	rec.set("core.measure_ms", m.MeasureMs)
	rec.set("snap.checkpoint_bytes", m.CheckpointBytes)
	rec.set("snap.restore_ms", m.RestoreMs)
	rec.setValue("figures.sims", float64(len(points)))
	return serial, nil
}

// setEfficiency reports how much of nproc × the cold pass's wall the set's
// serial simulation time fills.
func setEfficiency(rec *runRecord, serial, cold time.Duration) {
	rec.setValue("runner.parallel_efficiency", serial.Seconds()/(float64(runtime.GOMAXPROCS(0))*cold.Seconds()))
}

// setCheckpointDelta reports the checkpoint cache's counters over a span.
func setCheckpointDelta(rec *runRecord, before, after checkpoint.Stats) {
	if d := float64((after.Hits - before.Hits) + (after.Misses - before.Misses)); d > 0 {
		rec.setValue("checkpoint.hit_ratio", float64(after.Hits-before.Hits)/d)
	}
	rec.setValue("checkpoint.forks", float64(after.Forks-before.Forks))
}

// runSimTraced is the traced run of a simulation workload.
func runSimTraced(name string, seed int64, sz sizes, rec *runRecord) error {
	su, err := setupSim(name, subSeed(seed, 0), sz)
	if err != nil {
		return err
	}
	tf := newTraceFile(name, seed)
	bare, err := simLayers(su.cfg, su.ref, rec, tf)
	if err != nil {
		return err
	}
	serial, err := memoLayers([]core.Config{su.cfg}, rec, tf)
	if err != nil {
		return err
	}
	setEfficiency(rec, serial, bare)

	// The warm path of the timed run: fill a checkpoint cache, fork from it.
	ctx := context.Background()
	ckpts := checkpoint.New()
	if _, err := ckpts.Get(ctx, su.cfg); err != nil {
		return err
	}
	filled := ckpts.Snapshot()
	fres, err := ckpts.Run(ctx, su.cfg)
	if err != nil {
		return err
	}
	rec.check(sameResult(fres, su.ref), "%s: forked Result differs from the reference run", name)
	setCheckpointDelta(rec, filled, ckpts.Snapshot())

	j, err := newJob(su.cfg)
	if err != nil {
		return err
	}
	j.ref = su.ref
	if _, err := serveLayers([]job{j}, sz, rand.New(rand.NewSource(seed)), rec, tf); err != nil {
		return err
	}
	return tf.write(rec)
}
