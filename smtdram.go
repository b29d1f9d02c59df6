// Package smtdram is a simulation library reproducing "A Performance
// Comparison of DRAM Memory System Optimizations for SMT Processors"
// (Zhu & Zhang, HPCA 2005).
//
// It models a complete machine: an SMT out-of-order processor with the four
// instruction-fetch policies the paper compares (ICOUNT, Fetch-Stall, DG,
// DWarn), a three-level non-blocking cache hierarchy, and event-driven
// multi-channel DDR SDRAM / Direct Rambus DRAM systems with page and
// XOR/permutation address mapping, open/close page modes, channel ganging,
// and six access-scheduling policies — including the paper's three
// thread-aware schemes (outstanding-request-, ROB-, and IQ-occupancy-based).
//
// Workloads are synthetic models of the 26 SPEC CPU2000 applications (real
// binaries are not redistributable); see DESIGN.md for the substitution
// rationale and calibration.
//
// Quick start:
//
//	cfg := smtdram.DefaultConfig("mcf", "ammp") // the paper's 2-MEM mix
//	res, err := smtdram.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.TotalIPC(), res.RowBufferMissRate)
//
// The cmd/experiments binary regenerates every figure of the paper's
// evaluation; EXPERIMENTS.md records paper-vs-measured comparisons.
package smtdram

import (
	"smtdram/internal/addrmap"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// Core simulation types.
type (
	// Config describes a full machine + experiment; see DefaultConfig.
	Config = core.Config
	// MemConfig describes the DRAM system (channels, ganging, mapping,
	// page mode, scheduling policy).
	MemConfig = core.MemConfig
	// Result carries every measurement of a run.
	Result = core.Result
	// Simulator is an assembled machine; use NewSimulator + Run, or the
	// package-level Run convenience.
	Simulator = core.Simulator
	// CacheSnapshot is one cache level's counters.
	CacheSnapshot = core.CacheSnapshot
	// DRAMKind selects DDR SDRAM or Direct Rambus.
	DRAMKind = core.DRAMKind
	// Breakdown is a CPI attribution across the memory hierarchy.
	Breakdown = core.Breakdown
	// Mix is a Table 2 workload.
	Mix = workload.Mix
	// App is a synthetic SPEC CPU2000 application model.
	App = workload.App
	// FetchPolicy is an SMT instruction-fetch policy.
	FetchPolicy = cpu.FetchPolicy
	// SchedPolicy is a memory-access scheduling policy.
	SchedPolicy = memctrl.Policy
	// MapScheme is a DRAM address-mapping scheme.
	MapScheme = addrmap.Scheme
	// PageMode is the DRAM row-buffer management policy.
	PageMode = dram.PageMode
)

// DRAM technologies.
const (
	DDR   = core.DDR
	RDRAM = core.RDRAM
)

// Fetch policies (Section 5.1).
const (
	RoundRobin = cpu.RoundRobin
	ICOUNT     = cpu.ICOUNT
	FetchStall = cpu.FetchStall
	DG         = cpu.DG
	DWarn      = cpu.DWarn
)

// Access-scheduling policies (Sections 3 and 5.5).
const (
	FCFS         = memctrl.FCFS
	HitFirst     = memctrl.HitFirst
	AgeBased     = memctrl.AgeBased
	RequestBased = memctrl.RequestBased
	ROBBased     = memctrl.ROBBased
	IQBased      = memctrl.IQBased
)

// Address-mapping schemes (Section 5.4).
const (
	PageMapping = addrmap.Page
	XORMapping  = addrmap.XOR
)

// Page modes (Section 2).
const (
	OpenPage  = dram.OpenPage
	ClosePage = dram.ClosePage
)

// DefaultConfig returns the paper's Table 1 machine running the named
// applications, one per hardware thread.
func DefaultConfig(apps ...string) Config { return core.DefaultConfig(apps...) }

// NewSimulator builds the machine described by cfg.
func NewSimulator(cfg Config) (*Simulator, error) { return core.NewSimulator(cfg) }

// Run builds and runs a machine in one call.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// RunAlone runs a single application on cfg's machine and returns its IPC —
// the weighted-speedup denominator.
func RunAlone(cfg Config, app string) (float64, error) { return core.RunAlone(cfg, app) }

// WeightedSpeedup runs cfg's mix and divides per-thread IPCs by single-thread
// baselines on the identical machine. baselineCache (keyed by the one-thread
// configuration's Fingerprint) may be nil.
func WeightedSpeedup(cfg Config, baselineCache map[string]float64) (float64, Result, error) {
	return core.WeightedSpeedup(cfg, baselineCache)
}

// CPIBreakdown runs the paper's four-configuration CPI attribution
// (Section 4.2) for one application.
func CPIBreakdown(cfg Config, app string) (Breakdown, error) {
	return core.CPIBreakdown(cfg, app)
}

// Apps lists the 26 modeled SPEC CPU2000 application names.
func Apps() []string { return workload.Names() }

// AppByName returns one application model.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// Mixes returns the paper's Table 2 workload catalog.
func Mixes() []Mix { return workload.Mixes() }

// MixByName looks up a Table 2 workload (e.g. "4-MEM").
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// Source produces a thread's dynamic instruction stream. The synthetic
// application models implement it; a caller can feed a thread any other
// stream through Config.Sources.
type Source = cpu.Source

// Observability layer (see internal/obs and the README's Observability
// section): attach an Observer via Config.Observe to record a
// request-lifecycle trace, exportable as JSONL or Chrome trace_event JSON for
// Perfetto.
type (
	// Observer bundles one run's observability state.
	Observer = obs.Observer
	// LifecycleTracer records request-lifecycle events.
	LifecycleTracer = obs.Tracer
	// LifecycleEvent is one structured request-lifecycle record.
	LifecycleEvent = obs.Event
)

// NewTracer builds an empty lifecycle tracer. Typical use:
//
//	ob := &smtdram.Observer{Trace: smtdram.NewTracer()}
//	cfg.Observe = func() *smtdram.Observer { return ob }
//	res, _ := smtdram.Run(cfg)
//	ob.Trace.WriteChrome(f) // open f in ui.perfetto.dev
func NewTracer() *LifecycleTracer { return obs.NewTracer() }

// Fault injection and resilience (see DESIGN.md §10): attach a FaultPlan via
// Config.Faults to inject seeded read drops, retried with backoff;
// Result.Faults reports what happened.
type (
	// FaultPlan describes what to inject; nil injects nothing.
	FaultPlan = faults.Plan
	// FaultReport is the end-of-run drop/retry accounting.
	FaultReport = core.FaultReport
	// NoProgressError is Run's structured livelock-watchdog abort.
	NoProgressError = core.NoProgressError
)

// ParseFaultPlan parses a fault spec like
// "drop:rate=1e-3,seed=7" (the smtdram -faults syntax). An empty spec returns (nil, nil).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.Parse(spec) }
