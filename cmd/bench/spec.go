package main

import "fmt"

// This file is the benchmark's vocabulary: the workload and metric names the
// command emits. BENCHMARK.json at the repository root lists the same names
// (with the regression bounds); bench_test.go keeps the two in step.

// modelNote is attached to every output file: the repository holds no
// numeric reference for the simulated machine, so nothing here is an
// accuracy figure.
const modelNote = "The timing model is unvalidated against hardware and against the paper's absolute numbers " +
	"(EXPERIMENTS.md compares shape only). Host-time metrics measure this program; simulated counts are " +
	"what the model says, not what a machine would do. No error figure is reported."

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	// BENCHMARK.json has no field for modelNote; the first why carries it.
	{"ilp8", "Table 2 8-ILP on the default DDR machine: cpu, workload and L1s do nearly all the work; " +
		"memory-path changes must show nothing. (Model unvalidated against hardware or the paper's numbers.)"},
	{"mem8", "Table 2 8-MEM with request-based scheduling: deep multi-thread queues, open-page hit/conflict " +
		"logic, MSHR chains and the event queue dominate; memctrl/dram/event/cache gains appear here."},
	{"mem8_rdram_close", "The same 8-MEM mix on Direct RDRAM, close page, page mapping, FCFS: 32 banks/chip, " +
		"never a row hit, no reordering, long quiet spans; the deep-skip path does most of its work here."},
	{"fig10_sweep", "figures.Fig10 (6 schedulers x 6 mixes + 12 baselines = 48 sims) cold and from a filled " +
		"checkpoint cache: the figure a user waits for; runner, figures, checkpoint and snap do the work."},
	{"serve_fleet", "In-process coordinator + 2 durable workers, 2 closed-loop clients, 48 distinct jobs cold " +
		"then re-submitted >= 3000 times warm: server, store and fleet cost with the simulator idle."},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the system waits for. Every workload
// reports all of them, each on its own job set (README.md has the table):
// one simulation, the 48-simulation Fig 10 grid, or the 48-job served pool.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"sim_kips", "kinstr/s", "higher"},
	{"alloc_mb_per_sim", "MB", "lower"},
	{"sweep_cold_s", "s", "lower"},
	{"sweep_warm_s", "s", "lower"},
	{"cold_jobs_per_s", "jobs/s", "higher"},
	{"warm_p50_ms", "ms", "lower"},
}

// perLayer are the traced run's numbers, one group per module of the
// repository. A layer a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"workload.next_ns_per_instr", "ns/instr", "lower"},
	{"workload.instrs", "count", "lower"},
	{"cpu.tick_self_ns_per_cycle", "ns/cycle", "lower"},
	{"cpu.ipc", "instr/cycle", "higher"},
	{"cpu.squashes", "count", "lower"},
	{"event.rununtil_self_ns_per_cycle", "ns/cycle", "lower"},
	{"event.fired_per_cycle", "1/cycle", "lower"},
	{"event.max_pending", "count", "lower"},
	{"cache.lower_self_ns_per_call", "ns/call", "lower"},
	{"cache.lower_calls", "count", "lower"},
	{"cache.l1d_miss_rate", "ratio", "lower"},
	{"cache.l2_miss_rate", "ratio", "lower"},
	{"cache.l3_miss_rate", "ratio", "lower"},
	{"memctrl.enqueue_ns_per_req", "ns/req", "lower"},
	{"memctrl.reject_share", "ratio", "lower"},
	{"memctrl.replay_ns_per_req", "ns/req", "lower"},
	{"memctrl.avg_read_latency_cycles", "cycles", "lower"},
	{"dram.access_ns", "ns", "lower"},
	{"dram.row_miss_rate", "ratio", "lower"},
	{"dram.row_hits", "count", "higher"},
	{"dram.row_conflicts", "count", "lower"},
	{"addrmap.map_ns", "ns", "lower"},
	{"core.sim_cycles", "cycles", "lower"},
	{"core.skiprate", "ratio", "higher"},
	{"core.skip_segments", "count", "lower"},
	{"core.ns_per_simcycle", "ns/cycle", "lower"},
	{"core.noskip_ratio", "ratio", "higher"},
	{"core.warmup_share", "ratio", "lower"},
	{"core.measure_ms", "ms", "lower"},
	{"obs.observer_tax", "ratio", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.mem_path_share", "ratio", "lower"},
	{"snap.checkpoint_bytes", "bytes", "lower"},
	{"snap.restore_ms", "ms", "lower"},
	{"checkpoint.hit_ratio", "ratio", "higher"},
	{"checkpoint.forks", "count", "higher"},
	{"runner.parallel_efficiency", "ratio", "higher"},
	{"figures.sims", "count", "lower"},
	{"server.admission_ms_p50", "ms", "lower"},
	{"server.queue_ms_p50", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.respond_ms_p50", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.warm_p99_ms", "ms", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.restart_hit_ratio", "ratio", "higher"},
	{"store.restart_p50_ms", "ms", "lower"},
	{"fleet.proxy_hop_ms", "ms", "lower"},
	{"fleet.peer_hits", "count", "lower"},
}

// exactCounts are the per-layer metrics that repeat exactly for one seed: a
// simulator-speed change must leave them identical, a model change moves
// them and must say so. compare reports them as same/changed, not by bound.
var exactCounts = map[string]bool{
	"workload.instrs": true, "cpu.ipc": true, "cpu.squashes": true,
	"event.fired_per_cycle": true, "event.max_pending": true,
	"cache.lower_calls": true, "cache.l1d_miss_rate": true, "cache.l2_miss_rate": true, "cache.l3_miss_rate": true,
	"memctrl.reject_share": true, "memctrl.avg_read_latency_cycles": true,
	"dram.row_miss_rate": true, "dram.row_hits": true, "dram.row_conflicts": true,
	"core.sim_cycles": true, "core.skiprate": true, "core.skip_segments": true,
	"snap.checkpoint_bytes": true, "checkpoint.hit_ratio": true, "checkpoint.forks": true, "figures.sims": true,
}

func unitOf(name string) string {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared in spec.go", name))
}

func hasWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}
