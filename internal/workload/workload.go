// Package workload provides synthetic instruction-stream models of the 26
// SPEC CPU2000 applications the paper mixes into SMT workloads, plus the
// Table 2 workload catalog.
//
// Real SPEC binaries and reference inputs are not available here, so each
// application is modeled as a statistical generator over three address pools
// — a hot pool that fits in the L1, sequential streams, and a cold random
// region — with an instruction mix, a dependence-distance distribution, and
// branch behaviour. The pools are sized against the simulated hierarchy
// (64 KB L1D / 512 KB L2 / 4 MB L3) so each application reproduces its
// paper-reported behaviour class: cache-resident ILP codes, streaming
// array codes with high row-buffer locality (swim, lucas, applu), and
// pointer-chasing codes with poor locality and serialized misses (mcf,
// ammp). See DESIGN.md §2 for the substitution rationale.
package workload

import (
	"fmt"
	"math"
)

// Kind is an instruction class.
type Kind uint8

const (
	IntOp Kind = iota
	FPOp
	Load
	Store
	Branch
)

func (k Kind) String() string {
	switch k {
	case IntOp:
		return "int"
	case FPOp:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Class is the paper's application category.
type Class int

const (
	// ILP applications have small CPIproc and CPImem: compute-bound.
	ILP Class = iota
	// MID applications fall between the paper's two categories.
	MID
	// MEM applications have large CPImem: memory-bound.
	MEM
)

func (c Class) String() string {
	switch c {
	case ILP:
		return "ILP"
	case MID:
		return "MID"
	case MEM:
		return "MEM"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Instr is one dynamic instruction produced by a generator. The pipeline
// copies it by value at every stage, so the fields are ordered and sized to
// fit 32 bytes.
type Instr struct {
	// PC is the instruction's address (for I-cache modeling).
	PC uint64
	// Addr is the data address for Load/Store.
	Addr uint64
	// Lat is the execution latency in cycles (loads: cache adds more).
	Lat uint32
	// Dep1 and Dep2 are producer distances in dynamic instructions
	// (0 = no dependence). The consumer cannot issue until instructions
	// Dep* earlier have completed.
	Dep1, Dep2 int16
	// Kind classifies the instruction.
	Kind Kind
	// Mispredict marks a branch that will squash younger instructions when
	// it resolves.
	Mispredict bool
	// Taken marks branches that redirect fetch (ends the fetch block).
	Taken bool
}

// App is a synthetic application model.
type App struct {
	Name  string
	Class Class
	FP    bool // floating-point benchmark

	// Instruction mix (fractions of the dynamic stream; remainder is
	// IntOp/FPOp split by FPFrac).
	LoadFrac, StoreFrac, BranchFrac float64
	// FPFrac is the fraction of non-memory ALU work that is floating point.
	FPFrac float64
	// MispredictRate is the fraction of branches mispredicted.
	MispredictRate float64
	// TakenRate is the fraction of branches taken.
	TakenRate float64

	// MeanDep is the mean producer distance (larger = more ILP).
	MeanDep float64
	// IndepFrac is the probability an instruction has no register
	// dependences at all (immediates, loop counters in renamed registers,
	// address arithmetic off long-ready bases). This bounds how much of a
	// stalled thread transitively blocks in the shared issue queues — real
	// codes leak a steady stream of independent work even while a miss is
	// outstanding.
	IndepFrac float64
	// Dep2Frac is the probability an instruction has a second producer.
	Dep2Frac float64
	// LongLatFrac is the fraction of ALU ops with long latency (mult/div).
	LongLatFrac float64

	// HotBytes is the L1-resident pool (stack, locals, hot structures).
	HotBytes int64
	// HotFrac is the fraction of memory references to the hot pool.
	HotFrac float64
	// Streams is the number of concurrent sequential streams.
	Streams int
	// StreamBytes is the total footprint walked by the streams.
	StreamBytes int64
	// StreamFrac is the fraction of references that advance a stream.
	StreamFrac float64
	// StrideBytes is the stream stride.
	StrideBytes int64
	// ColdBytes is the random-access region; references that are neither
	// hot nor streaming land here uniformly.
	ColdBytes int64
	// ChaseFrac is the probability a cold load depends on the previous cold
	// load (pointer chasing: serialized misses).
	ChaseFrac float64
	// BurstDuty makes cold references bursty: they arrive only during miss
	// phases covering this fraction of execution, at proportionally higher
	// intensity, preserving the average rate. 0 (or 1) disables phasing.
	// This models the paper's observation that "cache misses tend to be
	// clustered together", which is what creates DRAM queueing and gives
	// access scheduling its reordering window.
	BurstDuty float64
	// BurstLen is the mean burst length in instructions (default 300).
	BurstLen int

	// CodeBytes is the instruction footprint.
	CodeBytes int64
	// JumpFrac is the fraction of taken branches that jump far (to a random
	// line in the code footprint) rather than locally.
	JumpFrac float64
}

// Validate sanity-checks fractions and sizes. The range checks are written so
// that NaN fails them (every comparison with NaN is false): NewGen turns these
// numbers into integer thresholds, and thresh has no answer for one.
func (a App) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", a.LoadFrac}, {"StoreFrac", a.StoreFrac}, {"BranchFrac", a.BranchFrac},
		{"FPFrac", a.FPFrac}, {"MispredictRate", a.MispredictRate}, {"TakenRate", a.TakenRate},
		{"IndepFrac", a.IndepFrac}, {"Dep2Frac", a.Dep2Frac}, {"LongLatFrac", a.LongLatFrac},
		{"HotFrac", a.HotFrac}, {"StreamFrac", a.StreamFrac}, {"ChaseFrac", a.ChaseFrac},
		{"JumpFrac", a.JumpFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload %s: %s = %v, want [0,1]", a.Name, f.name, f.v)
		}
	}
	if sum := a.LoadFrac + a.StoreFrac + a.BranchFrac; !(sum > 0 && sum < 1) {
		return fmt.Errorf("workload %s: load+store+branch = %v, want (0,1)", a.Name, sum)
	}
	if !(a.HotFrac+a.StreamFrac <= 1) {
		return fmt.Errorf("workload %s: hot+stream fractions exceed 1", a.Name)
	}
	if !(a.MeanDep >= 1 && a.MeanDep <= math.MaxFloat64) {
		return fmt.Errorf("workload %s: MeanDep = %v, want finite and >= 1", a.Name, a.MeanDep)
	}
	if math.IsNaN(a.BurstDuty) {
		return fmt.Errorf("workload %s: BurstDuty is NaN", a.Name)
	}
	if a.HotBytes <= 0 || a.CodeBytes <= 0 {
		return fmt.Errorf("workload %s: non-positive pool size", a.Name)
	}
	if a.StreamFrac > 0 && (a.Streams <= 0 || a.StreamBytes <= 0 || a.StrideBytes <= 0) {
		return fmt.Errorf("workload %s: streaming enabled with empty stream geometry", a.Name)
	}
	if a.HotFrac+a.StreamFrac < 1 && a.ColdBytes <= 0 {
		return fmt.Errorf("workload %s: cold references enabled with no cold region", a.Name)
	}
	return nil
}

// threadAddrBits separates per-thread address spaces: thread i's addresses
// live at i << threadAddrBits. Threads share caches but not data, matching
// the paper's multiprogrammed (not parallel) workloads.
const threadAddrBits = 40

// threadSkew staggers each thread's pools within its address space so
// different threads' hot data do not collide on the same cache sets. This
// models the bin-hopping virtual→physical page mapping the paper uses
// ("the cache interference between threads may be reduced by using a
// virtual-physical address mapping called bin hopping ... A similar mapping
// is used in our simulation"). The stride is an odd multiple of the line
// size, so consecutive threads land on well-separated sets at every level.
const threadSkew = 64 * 22651

// thresholds are an application's probabilities as thresh makes them: every
// random decision of its generator is one raw draw compared against one of
// these. They are derived from App alone, by the float expressions the
// decisions were first written in.
type thresholds struct {
	load, store, branch uint64 // cumulative instruction-mix boundaries
	mispredict, taken   uint64
	fp, longLat         uint64
	indep, dep2, dep    uint64 // dep: another step of the producer distance
	chase, jump         uint64

	// The pool draw: below hot or from stream up is the hot pool, between
	// them a stream, and from the cold boundary up — checked first — the cold
	// region. A bursty application's cold boundary is coldBurst inside a miss
	// phase and one (never) outside; the phase ends and starts with
	// probability burstEnd and burstStart a reference.
	hot, stream, cold    uint64
	bursty               bool
	coldBurst            uint64
	burstEnd, burstStart uint64
}

func newThresholds(a *App) thresholds {
	cold := 1 - a.HotFrac - a.StreamFrac
	th := thresholds{
		load:       thresh(a.LoadFrac),
		store:      thresh(a.LoadFrac + a.StoreFrac),
		branch:     thresh(a.LoadFrac + a.StoreFrac + a.BranchFrac),
		mispredict: thresh(a.MispredictRate),
		taken:      thresh(a.TakenRate),
		fp:         thresh(a.FPFrac),
		longLat:    thresh(a.LongLatFrac),
		indep:      thresh(a.IndepFrac),
		dep2:       thresh(a.Dep2Frac),
		dep:        thresh(1 - 1/a.MeanDep),
		chase:      thresh(a.ChaseFrac),
		jump:       thresh(a.JumpFrac),
		hot:        thresh(a.HotFrac),
		stream:     thresh(a.HotFrac + a.StreamFrac),
		cold:       thresh(1 - cold),
	}
	if duty := a.BurstDuty; duty > 0 && duty < 1 && cold > 0 {
		blen := float64(a.BurstLen)
		if blen <= 0 {
			blen = 300
		}
		eff := cold / duty
		if max := 1 - a.StreamFrac; eff > max {
			eff = max
		}
		th.bursty = true
		th.coldBurst = thresh(1 - eff)
		th.burstEnd = thresh(1 / blen)
		th.burstStart = thresh(duty / ((1 - duty) * blen))
	}
	return th
}

// Gen produces the dynamic instruction stream of one thread running app.
type Gen struct {
	app  App
	th   thresholds
	src  source
	base uint64
	skew uint64

	pc        uint64
	streamPos []int64
	sinceCold int // dynamic distance since the previous cold load
	count     uint64
	inBurst   bool
}

// NewGen builds a deterministic generator for hardware thread threadID.
func NewGen(app App, threadID int, seed int64) (*Gen, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	g := &Gen{
		app:       app,
		th:        newThresholds(&app),
		base:      uint64(threadID) << threadAddrBits,
		skew:      uint64(threadID) * threadSkew,
		streamPos: make([]int64, max(app.Streams, 1)),
	}
	g.src.seed(seed ^ int64(threadID+1)*0x5E3779B97F4A7C15)
	g.pc = g.codeBase() // code region starts at the (skewed) thread base
	// Stagger stream start positions so streams live in distinct rows.
	for i := range g.streamPos {
		if app.Streams > 0 {
			g.streamPos[i] = int64(i) * (app.StreamBytes / int64(app.Streams))
		}
	}
	return g, nil
}

// App returns the model being generated.
func (g *Gen) App() App { return g.app }

// Generated returns the number of instructions produced so far.
func (g *Gen) Generated() uint64 { return g.count }

// regions within a thread's address space (byte offsets from base).
const (
	codeOff   = uint64(0)
	hotOff    = uint64(1) << 28 // 256 MB in: clear of the code
	streamOff = uint64(1) << 30
	coldOff   = uint64(1) << 33
)

func (g *Gen) codeBase() uint64 { return g.base + codeOff + g.skew }

// Next produces the next dynamic instruction.
func (g *Gen) Next() Instr {
	g.count++
	th := &g.th
	in := Instr{PC: g.pc, Lat: 1}
	g.pc += 4

	r := g.src.draw63()
	switch {
	case r < th.load:
		in.Kind = Load
		in.Addr = g.dataAddr(&in)
	case r < th.store:
		in.Kind = Store
		in.Addr = g.dataAddr(nil)
	case r < th.branch:
		in.Kind = Branch
		in.Mispredict = g.src.below(th.mispredict)
		if g.src.below(th.taken) {
			in.Taken = true
			g.branchTarget()
		}
	default:
		if g.src.below(th.fp) {
			in.Kind = FPOp
			in.Lat = 4
		} else {
			in.Kind = IntOp
			in.Lat = 1
		}
		if g.src.below(th.longLat) {
			in.Lat = 7
		}
	}

	switch {
	case in.Dep1 < 0:
		in.Dep1 = 0 // forced independent
	case in.Dep1 == 0 && !g.src.below(th.indep):
		in.Dep1 = g.depDist()
	}
	if in.Dep1 != 0 && g.src.below(th.dep2) {
		in.Dep2 = g.depDist()
	}
	if g.sinceCold >= 0 {
		g.sinceCold++
	}
	return in
}

// depDist samples a geometric-ish producer distance with mean MeanDep: one
// more than the run of draws below 1-1/MeanDep, capped at 64.
func (g *Gen) depDist() int16 { return 1 + int16(g.src.runBelow(g.th.dep, 63)) }

// burstStep advances the two-state miss-phase modulator and returns the
// pool draw's cold boundary for this reference.
func (g *Gen) burstStep() uint64 {
	th := &g.th
	if !th.bursty {
		return th.cold
	}
	if g.inBurst {
		if g.src.below(th.burstEnd) {
			g.inBurst = false
		}
	} else if g.src.below(th.burstStart) {
		g.inBurst = true
	}
	if !g.inBurst {
		return one // no cold references between bursts
	}
	return th.coldBurst
}

// dataAddr picks the data pool and produces an address. For cold loads it
// may also wire a pointer-chase dependence into in.
func (g *Gen) dataAddr(in *Instr) uint64 {
	a, th := &g.app, &g.th
	cold := g.burstStep()
	r := g.src.draw63()
	switch {
	case r >= cold:
		if in != nil {
			if a.ChaseFrac > 0 && g.sinceCold >= 0 &&
				g.sinceCold < 64 && g.src.below(th.chase) {
				in.Dep1 = int16(g.sinceCold) // < 64
			} else {
				// Non-chased cold loads are independent gathers: their
				// index arithmetic is cache-resident and long since done.
				// This is what lets bursty codes expose real memory-level
				// parallelism (clusters of concurrent misses, Fig 4).
				in.Dep1 = -1
			}
			g.sinceCold = 0
		}
		return g.base + coldOff + g.skew + uint64(g.src.int63n(a.ColdBytes))&^7
	case r < th.hot || r >= th.stream:
		return g.base + hotOff + g.skew + uint64(g.src.int63n(a.HotBytes))&^7
	default:
		s := g.src.intn(a.Streams)
		span := a.StreamBytes / int64(a.Streams)
		addr := g.base + streamOff + g.skew + uint64(int64(s)*span+g.streamPos[s]%span)
		g.streamPos[s] += a.StrideBytes
		return addr &^ 7
	}
}

// branchTarget redirects the PC on a taken branch: usually a short local
// jump (loop), occasionally a far jump across the code footprint.
func (g *Gen) branchTarget() {
	a := &g.app
	cb := g.codeBase()
	if g.src.below(g.th.jump) {
		g.pc = cb + uint64(g.src.int63n(a.CodeBytes))&^3
		return
	}
	// Local backward jump of up to 64 instructions: a loop.
	back := uint64(g.src.intn(64)+1) * 4
	if g.pc-cb > back {
		g.pc -= back
	}
	// Keep the PC inside the code footprint.
	if g.pc-cb >= uint64(a.CodeBytes) {
		g.pc = cb + (g.pc-cb)%uint64(a.CodeBytes)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
