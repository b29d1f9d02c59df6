package cpu

import (
	"reflect"
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/workload"
)

// obsFingerprint is CPU.Fingerprint: the architecturally observable state
// skipped cycles are forbidden to change (see its doc for the exclusions).
func obsFingerprint(c *CPU) string { return c.Fingerprint() }

// newQuiesceRig is newRig with the Table-1-sized L1D and a long fixed
// memory latency: the shared rig's 4 KB / 8-MSHR L1D saturates under a real
// workload and keeps pendingStores non-empty, which (correctly) pins
// NextWorkAt at now+1 and would make these tests vacuous.
func newQuiesceRig(t *testing.T, cfg Config, srcs ...Source) *rig {
	t.Helper()
	r := &rig{t: t}
	r.low = cache.NewFixedLatency(&r.q, 300)
	var err error
	r.l1i, err = cache.New(&r.q, cache.Config{Name: "L1I", Latency: 1, Perfect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.l1d, err = cache.New(&r.q, cache.Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 1, MSHRs: 16}, r.low)
	if err != nil {
		t.Fatal(err)
	}
	r.cpu, err = New(&r.q, cfg, srcs, r.l1i, r.l1d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func realGen(t *testing.T, app string, id int) Source {
	t.Helper()
	a, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGen(a, id, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// NextWorkAt's contract, checked against the real Tick as the oracle: any
// cycle it declares quiet (no CPU trigger before it, no event due) must leave
// the entire observable fingerprint untouched when actually ticked.
func TestNextWorkAtPredictsQuietCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWarn
	r := newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "art", 1))
	quiet := 0
	predictedQuiet := false
	var before string
	for now := uint64(1); now <= 30_000; now++ {
		r.step(now)
		after := obsFingerprint(r.cpu)
		if predictedQuiet && after != before {
			t.Fatalf("cycle %d was predicted quiet but Tick changed state\nbefore: %s\nafter:  %s",
				now, before, after)
		}
		qa, qok := r.q.NextAt()
		predictedQuiet = r.cpu.NextWorkAt(now) > now+1 && (!qok || qa > now+1)
		if predictedQuiet {
			quiet++
			before = after
		}
	}
	if quiet < 100 {
		t.Fatalf("only %d cycles predicted quiet over a MEM-bound run; the predicate is vacuous", quiet)
	}
}

// runSkipping drives a rig the way core.Run's two-speed clock does — full
// Tick at landed cycles, NextWorkAt/AdvanceQuiet across quiet windows — and
// returns how many cycles it skipped.
func runSkipping(r *rig, cycles uint64) uint64 {
	var skipped uint64
	for now := uint64(1); now <= cycles; now++ {
		r.step(now)
		qa, qok := r.q.NextAt()
		if qok && qa <= now+1 {
			continue
		}
		target := r.cpu.NextWorkAt(now)
		if qok && qa < target {
			target = qa
		}
		if target > cycles+1 {
			target = cycles + 1
		}
		if target <= now+1 {
			continue
		}
		skipped += target - 1 - now
		r.cpu.AdvanceQuiet(now, target-1)
		now = target - 1
	}
	return skipped
}

// fullState is the complete end-of-run comparison for the lockstep test —
// unlike obsFingerprint it also includes the bookkeeping AdvanceQuiet
// replays, which must come out identical too.
type fullState struct {
	Fingerprint          string
	Cycles               uint64
	RRFetch, RRDisp, RRC int
	Gated                []uint64
}

func captureState(c *CPU) fullState {
	s := fullState{
		Fingerprint: obsFingerprint(c),
		Cycles:      c.Cycles,
		RRFetch:     c.rrFetch, RRDisp: c.rrDispatch, RRC: c.rrCommit,
	}
	for _, t := range c.threads {
		s.Gated = append(s.Gated, t.gated)
	}
	return s
}

// Lockstep equivalence at the CPU layer: an identically-seeded machine run
// cycle-by-cycle and one run through the two-speed protocol must end in the
// same state — including the round-robin rotations and the per-thread
// gated-dispatch counts that AdvanceQuiet reconstructs — under every fetch
// policy's gating rule.
func TestAdvanceQuietMatchesTicks(t *testing.T) {
	const cycles = 80_000
	for _, p := range append(FetchPolicies(), RoundRobin) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Policy = p
			ticked := newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "art", 1))
			ticked.cpu.SetTarget(1000, 5000)
			ticked.run(cycles)

			skippy := newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "art", 1))
			skippy.cpu.SetTarget(1000, 5000)
			skipped := runSkipping(skippy, cycles)

			a, b := captureState(ticked.cpu), captureState(skippy.cpu)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("states diverge after %d cycles (%d skipped):\nticked:  %+v\nskipped: %+v",
					cycles, skipped, a, b)
			}
			if skipped == 0 {
				t.Fatalf("%v: no cycles skipped on a MEM-bound rig", p)
			}
		})
	}
}
