package faults

// Injector executes a Plan. It is built once per simulation and consumed
// single-threaded (the simulator's event loop), drawing exactly one random
// per read when the plan drops, so the drop stream is a pure function of
// (plan, read order) — which is itself deterministic — and therefore identical
// across runs and at any -jobs value.
type Injector struct {
	plan *Plan
	rng  uint64

	// Drops counts the reads Drop condemned.
	Drops uint64
}

// NewInjector builds an injector for the plan; a nil or empty plan returns
// nil, and a nil *Injector injects nothing.
func NewInjector(p *Plan) *Injector {
	if p.Empty() {
		return nil
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{plan: p, rng: seed}
}

// Plan returns the injector's plan (nil for a nil injector).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// next is a splitmix64 step: a full-period, statistically strong 64-bit
// generator in three lines, with no shared state and no allocation.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Drop decides whether one completed DRAM read is lost: one uniform draw in
// [0, 1) against the plan's drop rate. Nil-safe; a plan without a drop rate
// draws nothing.
func (in *Injector) Drop() bool {
	if in == nil || in.plan.DropRate == 0 {
		return false
	}
	if float64(in.next()>>11)/(1<<53) >= in.plan.DropRate {
		return false
	}
	in.Drops++
	return true
}
