package cpu

import (
	"fmt"
	"slices"
	"testing"

	"smtdram/internal/workload"
)

// These tests pin down the dispatch-stage resource gate that realizes the
// fetch policies' anti-clog behaviour (see Config.MissIQAllowance).

// dispatchGated is the gate's verdict as dispatch reaches it: the thread's
// issue-queue occupancy against this cycle's limit.
func (c *CPU) dispatchGated(now uint64, t *thread) bool {
	limit, _ := c.gate(now, t)
	return t.iqInt+t.iqFP >= limit
}

// missThread fakes a thread that is experiencing a long data-cache miss and
// holds n issue-queue entries.
func missThread(r *rig, id, iqHeld int) *thread {
	t := r.cpu.threads[id]
	u := &t.rob[0]
	*u = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: 0, doneAt: pendingDone}
	t.inFlight = append(t.inFlight, u)
	t.iqInt = iqHeld
	return t
}

func TestDispatchGateBlocksMissingThreadUnderDWarn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWarn
	r := newRig(t, cfg, nops(), nops())
	th := missThread(r, 0, cfg.MissIQAllowance+40)
	if !r.cpu.dispatchGated(100, th) {
		t.Fatal("DWarn gate must block a missing thread past its allowance")
	}
	// The same thread below the allowance dispatches freely.
	th.iqInt = cfg.MissIQAllowance/2 - 1
	if r.cpu.dispatchGated(100, th) {
		t.Fatal("gate must not block below the allowance")
	}
}

func TestDispatchGateAllowanceScalesWithThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWarn
	// At 2 threads the allowance is half the equal share: (64+32)/(2*2)=24.
	r2 := newRig(t, cfg, nops(), nops())
	th := missThread(r2, 0, 20)
	if r2.cpu.dispatchGated(100, th) {
		t.Fatal("2-thread gate bound too low: 20 entries should be allowed")
	}
	th.iqInt = 25
	if !r2.cpu.dispatchGated(100, th) {
		t.Fatal("2-thread gate must bind at 24 entries")
	}
	// At 8 threads the allowance floors at MissIQAllowance (8).
	r8 := newRig(t, cfg, nops(), nops(), nops(), nops(), nops(), nops(), nops(), nops())
	th8 := missThread(r8, 0, 9)
	if !r8.cpu.dispatchGated(100, th8) {
		t.Fatal("8-thread gate must bind at the floor of 8 entries")
	}
}

func TestDispatchGateICOUNTEqualization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = ICOUNT
	r := newRig(t, cfg, nops(), nops())
	th := r.cpu.threads[0]
	// ICOUNT gates every thread (missing or not) at total/4 = 24 entries.
	th.iqInt = 23
	if r.cpu.dispatchGated(100, th) {
		t.Fatal("ICOUNT gate bound below its equalization point")
	}
	th.iqInt = 24
	if !r.cpu.dispatchGated(100, th) {
		t.Fatal("ICOUNT gate must bind at total/4")
	}
}

func TestDispatchGateOffForSingleThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWarn
	r := newRig(t, cfg, nops())
	th := missThread(r, 0, 60)
	if r.cpu.dispatchGated(100, th) {
		t.Fatal("gate must be disabled for single-thread runs (no one to protect)")
	}
}

func TestDispatchGateFetchStallUsesL2Signal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = FetchStall
	r := newRig(t, cfg, nops(), nops())
	th := missThread(r, 0, 30)
	// At now=5, the load is too young to count as an L2 miss: no gate.
	if r.cpu.dispatchGated(5, th) {
		t.Fatal("FetchStall gate fired before the L2-miss threshold")
	}
	if !r.cpu.dispatchGated(100, th) {
		t.Fatal("FetchStall gate must fire once the load has aged past an L2 hit")
	}
}

func TestClogSeparationEndToEnd(t *testing.T) {
	// One dependent-chain-of-misses thread plus one compute thread: under
	// DWarn, the compute thread should retain most of its solo throughput;
	// without any gate (RoundRobin policy has only the equalization gate —
	// use a custom config with the gate disabled) the clog eats it.
	gated := DefaultConfig()
	gated.Policy = DWarn
	rG := newRig(t, gated, chasing(), nops())
	rG.run(6000)
	gatedIPC := float64(rG.cpu.Committed(1)) / float64(rG.cpu.Cycles)

	ungated := DefaultConfig()
	ungated.Policy = DWarn
	rU := newRig(t, ungated, chasing(), nops())
	// Disable the gate by making the allowance huge.
	rU.cpu.cfg.MissIQAllowance = 1 << 20
	rU.run(6000)
	ungatedIPC := float64(rU.cpu.Committed(1)) / float64(rU.cpu.Cycles)

	if gatedIPC < ungatedIPC {
		t.Fatalf("gate should protect the compute thread: gated %.3f < ungated %.3f", gatedIPC, ungatedIPC)
	}
}

// chasing produces an endless pointer chase with dependent consumers, the
// IQ-clogging pattern.
func chasing() Source {
	return &chaseSrc{}
}

type chaseSrc struct {
	n    uint64
	addr uint64
}

func (c *chaseSrc) Next() workload.Instr {
	c.n++
	if c.n%4 == 0 {
		c.addr += 4096
		return workload.Instr{Kind: workload.Load, PC: c.n * 4, Addr: 0x100000 + c.addr, Dep1: 4, Lat: 1}
	}
	return workload.Instr{Kind: workload.IntOp, PC: c.n * 4, Dep1: 1, Lat: 1}
}

func TestCoopOrdersMissGroupByMemPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Coop
	r := newRig(t, cfg, nops(), nops(), nops())
	// Threads 0 and 2 both have outstanding misses; thread 1 is clean.
	missThread(r, 0, 4)
	missThread(r, 2, 4)
	pressure := map[int]int{0: 9, 2: 1}
	r.cpu.SetMemPressure(func(th int) int { return pressure[th] })
	order := r.cpu.fetchOrder(100)
	if len(order) != 3 {
		t.Fatalf("order = %v", ids(order))
	}
	if order[0].id != 1 {
		t.Fatalf("order %v: clean thread must lead", ids(order))
	}
	// Within the miss group, thread 2 (1 pending DRAM request) outranks
	// thread 0 (9 pending).
	if order[1].id != 2 || order[2].id != 0 {
		t.Fatalf("order %v: miss group must sort by memory pressure", ids(order))
	}
}

func TestCoopWithoutPressureFallsBackToDWarn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Coop
	r := newRig(t, cfg, nops(), nops())
	missThread(r, 0, 4)
	order := r.cpu.fetchOrder(100)
	if len(order) != 2 || order[0].id != 1 {
		t.Fatalf("order = %v, want DWarn-like grouping", ids(order))
	}
}

// gate's flipAt is what lets ProbeQuiet stand one verdict in for a whole quiet
// span, so it is held to its contract by brute force, with gate itself on the
// frozen state as the oracle (a retuned threshold cannot desynchronise the
// two): the verdict occupancy >= limit holds on every cycle before flipAt —
// on every later cycle when flipAt is 0 — and with a single in-flight load it
// changes exactly at flipAt, unless that load matures before it can age into a
// miss (the bound is then early, which is always exact).
func TestGateFlipBoundsTheVerdict(t *testing.T) {
	const now = 1000
	for _, p := range []FetchPolicy{RoundRobin, ICOUNT, FetchStall, DG, DWarn, Coop} {
		for _, n := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Policy = p
			srcs := make([]Source, n)
			for i := range srcs {
				srcs[i] = nops()
			}
			c := newRig(t, cfg, srcs...).cpu
			th := c.threads[0]
			total := cfg.IntIQ + cfg.FPIQ
			horizon := c.missAge() + 8
			verdict := func(at uint64) bool {
				limit, _ := c.gate(at, th)
				return th.iqInt+th.iqFP >= limit
			}
			var occs []int
			for _, edge := range []int{c.missAllowance(total, n), total / 4} {
				occs = append(occs, edge-1, edge, edge+1)
			}
			for _, occ := range occs {
				for age := c.missAge() - 2; age <= c.missAge()+2; age++ {
					for _, doneAt := range []uint64{pendingDone, now + 1, now + 3} {
						for second := 0; second <= 2; second++ { // none, as old as the first, younger
							th.iqInt = occ
							th.rob[0] = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: now - age, doneAt: doneAt}
							th.rob[1] = uop{in: workload.Instr{Kind: workload.Load}, state: stIssued, issuedAt: now - age + 2*uint64(second-1), doneAt: pendingDone}
							th.inFlight, th.ifHead = []*uop{&th.rob[0], &th.rob[1]}[:min(second+1, 2)], 0
							state := fmt.Sprintf("%v, %d threads, occupancy %d, age %d, doneAt now%+d, %d loads",
								p, n, occ, age, int64(doneAt-now), len(th.inFlight)) // pendingDone prints as now-1001

							limit, flipAt := c.gate(now, th)
							v0 := occ >= limit
							if flipAt != 0 && flipAt <= now {
								t.Fatalf("%s: flipAt %d is not after now", state, flipAt)
							}
							holdsUntil := uint64(now) + horizon
							if flipAt != 0 {
								holdsUntil = flipAt - 1
							}
							for m := uint64(now + 1); m <= holdsUntil; m++ {
								if verdict(m) != v0 {
									t.Fatalf("%s: verdict %v flips at now+%d, flipAt = %d", state, v0, m-now, flipAt)
								}
							}
							if flipAt == 0 || len(th.inFlight) > 1 {
								continue
							}
							if maturesFirst := !v0 && doneAt <= flipAt; verdict(flipAt) == v0 && !maturesFirst {
								t.Fatalf("%s: verdict still %v at flipAt = now+%d", state, v0, flipAt-now)
							}
						}
					}
				}
			}
		}
	}
}

// canDispatchHead is dispatchOne's admission test and ProbeQuiet's: for every
// instruction kind against every exhausted resource it holds exactly when
// dispatchOne then moves the frontend head, and only the resources the kind
// needs can refuse it.
func TestCanDispatchHeadMatchesDispatchOne(t *testing.T) {
	cfg := DefaultConfig()
	exhaust := map[string]func(c *CPU, th *thread){
		"none":  func(*CPU, *thread) {},
		"ROB":   func(_ *CPU, th *thread) { th.nextSeq = th.headSeq + uint64(cfg.ROBPerThread) },
		"IntIQ": func(c *CPU, _ *thread) { c.intIQUsed = cfg.IntIQ },
		"FPIQ":  func(c *CPU, _ *thread) { c.fpIQUsed = cfg.FPIQ },
		"LQ":    func(c *CPU, _ *thread) { c.lqUsed = cfg.LQ },
		"SQ":    func(c *CPU, _ *thread) { c.sqUsed = cfg.SQ },
	}
	needs := map[workload.Kind][]string{
		workload.IntOp:  {"ROB", "IntIQ"},
		workload.FPOp:   {"ROB", "FPIQ"},
		workload.Load:   {"ROB", "IntIQ", "LQ"},
		workload.Store:  {"ROB", "IntIQ", "SQ"},
		workload.Branch: {"ROB", "IntIQ"},
	}
	for kind, needed := range needs {
		for res, apply := range exhaust {
			c := newRig(t, cfg, nops()).cpu
			th := c.threads[0]
			th.frontend = append(th.frontend, feEntry{in: workload.Instr{Kind: kind, Lat: 1}})
			apply(c, th)
			can := c.canDispatchHead(th)
			if want := !slices.Contains(needed, res); can != want {
				t.Errorf("%v with %s exhausted: canDispatchHead = %v, want %v", kind, res, can, want)
			}
			if moved := c.dispatchOne(th) && th.feLen() == 0; moved != can {
				t.Errorf("%v with %s exhausted: canDispatchHead = %v but dispatchOne moved the head: %v", kind, res, can, moved)
			}
		}
	}
}
