// Package core assembles the full simulated machine — SMT processor,
// three-level cache hierarchy, and multi-channel DRAM system — and exposes
// the configuration and run API used by the examples, the CLI, and the
// benchmark harness that regenerates the paper's figures.
package core

import (
	"fmt"
	"strings"

	"smtdram/internal/addrmap"
	"smtdram/internal/cache"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// DRAMKind selects the memory technology.
type DRAMKind int

const (
	// DDR is the multi-channel DDR SDRAM system (16 B × 200 MHz DDR
	// channels, 1 chip group × 4 banks per channel).
	DDR DRAMKind = iota
	// RDRAM is the Direct Rambus system (narrow 800 MT/s channels, 4 chips
	// × 32 banks per channel).
	RDRAM
)

func (k DRAMKind) String() string {
	if k == RDRAM {
		return "rdram"
	}
	return "ddr"
}

// ParseDRAMKind converts a CLI name.
func ParseDRAMKind(s string) (DRAMKind, error) {
	switch strings.ToLower(s) {
	case "ddr":
		return DDR, nil
	case "rdram":
		return RDRAM, nil
	}
	return 0, fmt.Errorf("core: unknown DRAM kind %q (want ddr or rdram)", s)
}

// MemConfig describes the main memory system.
type MemConfig struct {
	// Kind is the DRAM technology.
	Kind DRAMKind
	// PhysChannels is the number of physical channels (2/4/8 in the paper).
	PhysChannels int
	// Gang clusters this many physical channels into one logical channel
	// ("4C-2G" = PhysChannels 4, Gang 2). DDR only.
	Gang int
	// PageMode is open or close page.
	PageMode dram.PageMode
	// Scheme is the address mapping scheme (page or XOR).
	Scheme addrmap.Scheme
	// Policy is the access-scheduling policy.
	Policy memctrl.Policy
	// QueueDepth and MaxInFlight tune the controller (0 = defaults).
	QueueDepth  int
	MaxInFlight int
	// ThreadAwareFirst ranks the thread-aware criterion above hit-first,
	// inverting the paper's recommended order (ablation only).
	ThreadAwareFirst bool
	// Refresh enables realistic all-bank refresh (7.8 µs interval, 70 ns
	// duration at 3 GHz). Off by default: the paper does not model it, and
	// its ~1% bandwidth tax is invisible at figure scale.
	Refresh bool
	// TurnaroundNS is the bus direction-switch penalty in nanoseconds
	// (0 = ideal bus, the paper's assumption).
	TurnaroundNS int
}

// LogicalChannels returns the post-ganging channel count.
func (m MemConfig) LogicalChannels() (int, error) {
	ch, _, err := addrmap.Gang(m.PhysChannels, m.Gang, 16)
	return ch, err
}

// Geometry builds the logical DRAM geometry.
func (m MemConfig) Geometry() (addrmap.Geometry, error) {
	ch, err := m.LogicalChannels()
	if err != nil {
		return addrmap.Geometry{}, err
	}
	g := addrmap.Geometry{
		Channels:  ch,
		PageBytes: 2048,
		LineBytes: 64,
	}
	switch m.Kind {
	case DDR:
		g.ChipsPerChannel = 1
		g.BanksPerChip = 4
	case RDRAM:
		if m.Gang != 1 {
			return addrmap.Geometry{}, fmt.Errorf("core: RDRAM channels cannot be ganged")
		}
		g.ChipsPerChannel = 4
		g.BanksPerChip = 32
	}
	return g, nil
}

// Params builds the per-logical-channel DRAM timing.
func (m MemConfig) Params() (dram.Params, error) {
	var p dram.Params
	switch m.Kind {
	case DDR:
		_, width, err := addrmap.Gang(m.PhysChannels, m.Gang, 16)
		if err != nil {
			return dram.Params{}, err
		}
		p = dram.DDRParams(width, 64, m.PageMode)
	case RDRAM:
		p = dram.RDRAMParams(64, m.PageMode)
	default:
		return dram.Params{}, fmt.Errorf("core: unknown DRAM kind %d", m.Kind)
	}
	if m.Refresh {
		p.RefreshInterval = 23400 // 7.8 µs at 3 GHz
		p.RefreshDuration = 210   // 70 ns
	}
	p.Turnaround = uint64(m.TurnaroundNS) * 3
	return p, nil
}

// TraceMachine is what obs.Attribute needs of this memory system beyond its
// lifecycle trace: each channel's in-flight window, and how long a bank stays
// busy after a transfer (tRP under close page).
func (m MemConfig) TraceMachine() (obs.Machine, error) {
	p, err := m.Params()
	if err != nil {
		return obs.Machine{}, err
	}
	tm := obs.Machine{Window: m.MaxInFlight}
	if tm.Window == 0 {
		tm.Window = memctrl.DefaultMaxInFlight
	}
	if p.Mode == dram.ClosePage {
		tm.BankHold = p.TRP
	}
	return tm, nil
}

// Config is the full machine + experiment configuration.
type Config struct {
	// Apps names the application run on each hardware thread (Table 2
	// mixes, or any subset of the 26 modeled SPEC2000 apps). When Sources
	// is set, Apps only labels the threads.
	Apps []string
	// Sources, when non-nil, supplies each thread's instruction stream
	// directly instead of the synthetic generators. Must match Apps in
	// length.
	Sources []cpu.Source
	// Seed drives all generators; same seed = same simulation.
	Seed int64
	// WarmupInstr is the per-thread instruction count retired before
	// measurement starts, mirroring the paper's cache warmup during
	// fast-forward. Stats are snapshotted when the last thread crosses it.
	WarmupInstr uint64
	// TargetInstr is the per-thread committed-instruction goal past warmup;
	// per the paper's methodology a thread's IPC is measured when it crosses
	// the target, and it keeps running to preserve contention.
	TargetInstr uint64
	// MaxCycles bounds the simulation (0 = auto: 400 cycles/instruction).
	MaxCycles uint64

	// Faults, when non-nil and non-empty, attaches the fault-injection
	// subsystem (see internal/faults): seeded read drops retried with
	// backoff. Nil keeps the memory path byte-identical to a fault-free
	// build.
	Faults *faults.Plan
	// WatchdogCycles is the no-progress bound: if no instruction commits for
	// this many cycles the run aborts with a *NoProgressError instead of
	// spinning to MaxCycles (0 = default 500 000).
	WatchdogCycles uint64
	// DisableClockSkip forces the run loop to tick every cycle instead of
	// fast-forwarding across quiescent windows (see DESIGN §11). Skipping is
	// byte-identical to ticking by construction, so this exists only for the
	// equivalence tests, benchmarking the two speeds against each other, and
	// debugging; it is deliberately absent from Fingerprint.
	DisableClockSkip bool

	// CPU is the core configuration (Table 1 defaults).
	CPU cpu.Config
	// Mem is the DRAM system configuration.
	Mem MemConfig

	// Cache geometry (Table 1 defaults via DefaultConfig).
	L1I, L1D, L2, L3 cache.Config

	// PerfectL1/L2/L3 model the paper's infinitely large caches for CPI
	// breakdown: PerfectL3 removes all DRAM traffic, PerfectL2 removes L3
	// and DRAM traffic, PerfectL1 isolates CPIproc.
	PerfectL1, PerfectL2, PerfectL3 bool

	// Observe, when non-nil, is called once per constructed simulator to
	// build its observability attachment (the request-lifecycle tracer and
	// the run hooks — see internal/obs). A factory rather than
	// a value because some drivers (CPIBreakdown, WeightedSpeedup) run
	// several simulations from one Config; each needs a fresh observer. A nil
	// return disables observability for that run.
	Observe func() *obs.Observer
}

// DefaultConfig returns the paper's Table 1 machine running the given apps
// on a 2-channel DDR system with the DWarn fetch policy, XOR mapping, open
// page, and hit-first scheduling (the paper's baseline for Sections 5.1-5.4).
func DefaultConfig(apps ...string) Config {
	return Config{
		Apps:        apps,
		Seed:        42,
		WarmupInstr: 100_000,
		TargetInstr: 200_000,
		CPU:         cpu.DefaultConfig(),
		Mem: MemConfig{
			Kind:         DDR,
			PhysChannels: 2,
			Gang:         1,
			PageMode:     dram.OpenPage,
			Scheme:       addrmap.XOR,
			Policy:       memctrl.HitFirst,
		},
		L1I: cache.Config{Name: "L1I", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16},
		L1D: cache.Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16},
		L2:  cache.Config{Name: "L2", SizeBytes: 512 << 10, Assoc: 2, LineBytes: 64, Latency: 10, MSHRs: 16},
		L3:  cache.Config{Name: "L3", SizeBytes: 4 << 20, Assoc: 4, LineBytes: 64, Latency: 20, MSHRs: 16},
	}
}

// maxPhysChannels bounds the memory system Validate accepts: eight times the
// paper's largest, and far below a count whose channels would not fit in
// memory.
const maxPhysChannels = 64

// Validate rejects incoherent configurations: anything it accepts builds a
// machine that runs to a Result or a *NoProgressError, unless its context is
// cancelled first.
func (c Config) Validate() error {
	if len(c.Apps) == 0 {
		return fmt.Errorf("core: no applications configured")
	}
	if len(c.Apps) > cpu.MaxThreads {
		return fmt.Errorf("core: %d threads (at most %d)", len(c.Apps), cpu.MaxThreads)
	}
	if c.TargetInstr == 0 {
		return fmt.Errorf("core: zero instruction target")
	}
	if c.Sources != nil && len(c.Sources) != len(c.Apps) {
		return fmt.Errorf("core: %d sources for %d threads", len(c.Sources), len(c.Apps))
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.Mem.PhysChannels > maxPhysChannels {
		return fmt.Errorf("core: %d physical channels (at most %d)", c.Mem.PhysChannels, maxPhysChannels)
	}
	geo, err := c.Mem.Geometry()
	if err != nil {
		return err
	}
	if err := geo.Validate(); err != nil {
		return err
	}
	if _, err := c.Mem.Params(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Fingerprint is a one-line deterministic description of the configuration,
// attached to worker-panic errors so a crash in a parallel sweep identifies
// the exact run that died. The serving daemon also keys its result cache and
// request dedup on it, so every knob that changes simulation results and that
// a driver can vary must appear here (equivalence-only toggles like
// DisableClockSkip are deliberately absent).
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("apps=%s seed=%d warm=%d target=%d fetch=%s mem=%s-%dch-g%d %s %s %s",
		strings.Join(c.Apps, "+"), c.Seed, c.WarmupInstr, c.TargetInstr,
		c.CPU.Policy,
		c.Mem.Kind, c.Mem.PhysChannels, c.Mem.Gang,
		c.Mem.PageMode, c.Mem.Scheme, c.Mem.Policy)
	if !c.Faults.Empty() {
		fp += " faults=" + c.Faults.String()
	}
	return fp
}

// WarmupFingerprint identifies a configuration's warmup prefix: every knob
// that can influence the machine's state — or the run loop's bookkeeping — at
// the cycle the last thread crosses WarmupInstr. Unlike Fingerprint, this
// includes every geometry and tuning field: a checkpoint is raw machine state,
// so anything that shapes that state must key it.
//
// TargetInstr is one of them. Threads warm at different speeds, so a fast
// thread can commit warmup+target instructions — and have its finishing cycle
// recorded — before the slowest one crosses the boundary; a checkpoint taken
// under one target would hand that cycle to a run with another. The cycle
// budget and the watchdog window key the frame for another reason, which
// clock.mustLand makes checkable: a landing bound by either is a landing on
// which the run ends, so neither shapes the state of a machine that reaches
// the boundary — they decide whether it gets there. A frame taken under a
// generous budget or window must not resurrect a run that, on its own terms,
// times out or trips the watchdog inside warmup.
func (c Config) WarmupFingerprint() string {
	return fmt.Sprintf("apps=%s seed=%d warm=%d target=%d max=%d wd=%d noskip=%v cpu=%+v"+
		" mem=%s-%dch-g%d %s %s %s q%d if%d taf=%v refresh=%v turn=%d"+
		" l1i=%+v l1d=%+v l2=%+v l3=%+v perfect=%v%v%v",
		strings.Join(c.Apps, "+"), c.Seed, c.WarmupInstr, c.TargetInstr, c.maxCycles(),
		c.WatchdogCycles, c.DisableClockSkip, c.CPU,
		c.Mem.Kind, c.Mem.PhysChannels, c.Mem.Gang,
		c.Mem.PageMode, c.Mem.Scheme, c.Mem.Policy,
		c.Mem.QueueDepth, c.Mem.MaxInFlight, c.Mem.ThreadAwareFirst,
		c.Mem.Refresh, c.Mem.TurnaroundNS,
		c.L1I, c.L1D, c.L2, c.L3, c.PerfectL1, c.PerfectL2, c.PerfectL3)
}

func (c Config) maxCycles() uint64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	mc := (c.WarmupInstr + c.TargetInstr) * 400
	if mc < 2_000_000 {
		mc = 2_000_000
	}
	return mc
}
