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
// workload and keeps pendingStores non-empty, which (correctly) keeps
// ProbeQuiet from ever reporting quiet and would make these tests vacuous.
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

// ProbeQuiet's bound, checked against the real Tick as the oracle: any cycle
// it declares quiet (no CPU trigger before it, no event due) must leave the
// entire observable fingerprint untouched when actually ticked.
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
		next, _, cpuQuiet := r.cpu.ProbeQuiet(now)
		predictedQuiet = cpuQuiet && next > now+1 && (!qok || qa > now+1)
		if predictedQuiet {
			quiet++
			before = after
		}
	}
	if quiet < 100 {
		t.Fatalf("only %d cycles predicted quiet over a MEM-bound run; the predicate is vacuous", quiet)
	}
}

// runSkipping drives a rig with the CPU half of the two-speed clock — full
// Tick at landed cycles, ProbeQuiet/ApplyQuiet across windows no event falls
// in — and returns how many cycles it skipped.
func runSkipping(r *rig, cycles uint64) uint64 {
	var skipped uint64
	for now := uint64(1); now <= cycles; now++ {
		r.step(now)
		qa, qok := r.q.NextAt()
		if qok && qa <= now+1 {
			continue
		}
		target, fx, quiet := r.cpu.ProbeQuiet(now)
		if !quiet {
			continue
		}
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
		r.cpu.ApplyQuiet(fx, target-1-now)
		now = target - 1
	}
	return skipped
}

// fullState is the complete end-of-run comparison for the lockstep test —
// unlike obsFingerprint it also includes the bookkeeping ApplyQuiet
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
// gated-dispatch counts that ApplyQuiet reconstructs — under every fetch
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

// A finished store at the ROB head cannot retire into a full committed-store
// buffer, and the buffer cannot drain while its own head is parked on a full
// MSHR file: that machine is quiet until a fill lands in the L1D. The script
// is a single thread of stores to distinct lines, so the 8 MSHRs fill, the
// ninth store parks at the buffer's head, the buffer fills behind it, and the
// next store stalls commit — some 190 cycles before the first fill returns.
func TestStoreBufferParkedHeadIsQuiet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQ = 4
	stores := &script{}
	for i := uint64(0); i < 64; i++ {
		stores.ins = append(stores.ins, workload.Instr{Kind: workload.Store, Addr: 0x10000 + i*64})
	}
	r := newRig(t, cfg, stores)
	c, th := r.cpu, r.cpu.threads[0]
	parked := func() bool {
		if th.robCount() == 0 || !c.storeBufferFull() {
			return false
		}
		u := th.slot(th.headSeq)
		return u.state == stDone && u.in.Kind == workload.Store
	}

	now := uint64(0)
	for !parked() || !r.l1d.WouldBlock(c.pendingStores[c.psHead].addr) {
		if now++; now > 100 {
			t.Fatalf("commit never stalled behind a full, MSHR-parked store buffer: %s", c.Fingerprint())
		}
		r.step(now)
	}
	next, fx, quiet := c.ProbeQuiet(now)
	if !quiet || next != ^uint64(0) || fx.mshrBump != 1 {
		t.Fatalf("ProbeQuiet at %d = (next %d, mshrBump %d, quiet %v), want quiet until an event, with the buffer head's one retry a cycle",
			now, next, fx.mshrBump, quiet)
	}

	// Tick is the oracle: up to the first fill, every cycle changes nothing
	// but the retry count.
	fill, ok := r.q.NextAt()
	if !ok || fill < now+100 {
		t.Fatalf("first event at %d (pending %v), want the fills some 200 cycles out", fill, ok)
	}
	before, full := c.Fingerprint(), r.l1d.Stats.MSHRFull
	for m := now + 1; m < fill; m++ {
		r.step(m)
		if got := c.Fingerprint(); got != before {
			t.Fatalf("cycle %d was predicted quiet but Tick changed state\nbefore: %s\nafter:  %s", m, before, got)
		}
	}
	if got, want := r.l1d.Stats.MSHRFull-full, fill-1-now; got != want {
		t.Fatalf("MSHRFull grew by %d over %d quiet cycles, want one a cycle", got, want)
	}

	// The fill frees an MSHR: the buffer's head is no longer blocked, so the
	// same stalled commit head must not be read as quiet.
	r.q.RunUntil(fill)
	if !parked() || r.l1d.WouldBlock(c.pendingStores[c.psHead].addr) {
		t.Fatalf("after the fill at %d the buffer head should be free to drain: %s", fill, c.Fingerprint())
	}
	if _, _, quiet := c.ProbeQuiet(fill - 1); quiet {
		t.Fatal("quiet with a drainable store buffer")
	}
	r.cpu.Tick(fill)
	if got := c.Fingerprint(); got == before {
		t.Fatal("the Tick after the fill drained nothing")
	}
}
