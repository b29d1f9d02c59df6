package cpu

import (
	"fmt"
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

// Tests for the wakeup-driven issue stage (DESIGN §11): a structural
// invariant checker and a full-queue-scan oracle, both run on every cycle of
// every rig-driven test in this package (rig.step), plus scripted cases that
// steer the structures into their corners.

// pendingProducers counts u's distinct in-ROB producers whose completion
// time is unknown.
func pendingProducers(t *thread, u *uop) int {
	n := 0
	for k, dep := range [2]uint64{u.dep1, u.dep2} {
		if dep != noDep && dep >= t.headSeq && !(k == 1 && dep == u.dep1) && t.slot(dep).doneAt == pendingDone {
			n++
		}
	}
	return n
}

// checkWakeup asserts the wakeup structures' invariants:
//   - only a producer whose completion time is unknown has a consumer list;
//     the list is newest-first and each node is a live waiting uop naming
//     that producer through the dep the node serves;
//   - a live waiting uop's unknown count is the number of its distinct
//     in-ROB producers with unknown completion, and it is reachable from
//     exactly that many list heads;
//   - it is in the ready set iff that count is zero, and the ready set holds
//     nothing else and is strictly age-ordered.
func checkWakeup(tb testing.TB, c *CPU, now uint64) {
	tb.Helper()
	fail := func(format string, args ...any) {
		tb.Helper()
		tb.Fatalf("cycle %d: wakeup invariant: %s", now, fmt.Sprintf(format, args...))
	}
	robLen := len(c.threads[0].rob)
	inReady := make([]bool, len(c.threads)*robLen) // by thread, ROB slot
	reachedAll := make([]uint8, len(c.threads)*robLen)
	for i, u := range c.ready {
		if i > 0 && c.ready[i-1].stamp >= u.stamp {
			fail("ready set out of age order at %d: stamps %d, %d", i, c.ready[i-1].stamp, u.stamp)
		}
		t := c.threads[u.tid]
		if u.epoch == poisoned || u.state != stWaiting || u.seq < t.headSeq || u.seq >= t.nextSeq || t.slot(u.seq) != u {
			fail("ready set holds a dead uop: t%d seq %d state %d epoch %#x", u.tid, u.seq, u.state, u.epoch)
		}
		inReady[int(u.tid)*robLen+int(u.seq&t.robMask)] = true
	}
	for _, t := range c.threads {
		var lastStamp uint64
		reached := reachedAll[t.id*robLen:][:robLen] // by consumer slot: list heads it is reachable from
		for s := t.headSeq; s < t.nextSeq; s++ {
			u := t.slot(s)
			if u.seq != s || u.epoch == poisoned {
				fail("t%d seq %d: live ROB range holds seq %d epoch %#x", t.id, s, u.seq, u.epoch)
			}
			pending := u.doneAt == pendingDone
			inFlightLoad := u.state == stIssued && u.in.Kind == workload.Load
			if (u.state == stWaiting && !pending) || (pending && u.state != stWaiting && !inFlightLoad) {
				fail("t%d seq %d: state %d with doneAt %#x", t.id, s, u.state, u.doneAt)
			}
			if !pending && u.cons != 0 {
				fail("t%d seq %d: completion known at %d but consumers still parked", t.id, s, u.doneAt)
			}
			prev := ^uint64(0)
			for l := u.cons; l != 0; {
				v, k := &t.rob[(l-1)>>1], (l-1)&1
				if v.seq <= s || v.seq >= t.nextSeq || v.epoch == poisoned || v.state != stWaiting {
					fail("t%d seq %d: list holds dead or squashed seq %d (state %d, epoch %#x)", t.id, s, v.seq, v.state, v.epoch)
				}
				if [2]uint64{v.dep1, v.dep2}[k] != s || (k == 1 && v.dep1 == v.dep2) {
					fail("t%d seq %d: list node (seq %d, dep %d) does not name this producer", t.id, s, v.seq, k)
				}
				if v.seq >= prev {
					fail("t%d seq %d: list not newest-first: seq %d after %d", t.id, s, v.seq, prev)
				}
				prev = v.seq
				reached[v.seq&t.robMask]++
				l = v.next[k]
			}
		}
		for s := t.headSeq; s < t.nextSeq; s++ {
			u := t.slot(s)
			ready := inReady[t.id*robLen+int(s&t.robMask)]
			if u.state != stWaiting {
				if u.unknown != 0 || ready {
					fail("t%d seq %d: issued uop still counted (unknown %d, ready %v)", t.id, s, u.unknown, ready)
				}
				continue
			}
			if u.stamp < lastStamp {
				fail("t%d seq %d: dispatch stamps not monotonic within the thread", t.id, s)
			}
			lastStamp = u.stamp
			want := pendingProducers(t, u)
			if int(u.unknown) != want || int(reached[s&t.robMask]) != want {
				fail("t%d seq %d: unknown = %d, on %d lists, want %d", t.id, s, u.unknown, reached[s&t.robMask], want)
			}
			if ready != (want == 0) {
				fail("t%d seq %d: in ready set = %v with %d unknown producers", t.id, s, ready, want)
			}
		}
	}
}

// issueOracle is the rule the wakeup structures replaced, kept as the
// reference: walk every issue-queue entry in dispatch order; an entry is
// ready iff each producer is committed, done, or completes by now; issue
// while width and a functional unit remain, and stop checking once both
// widths are spent. It brackets one Tick: begin records the queue, verify
// replays the walk against what the Tick did. Whether an attempted load was
// accepted is the cache's answer, not the scan's, so it is read back from
// the outcome — a rejected attempt is still accounted for, through the
// MSHRFull count every rejection leaves behind.
type issueOracle struct {
	c        *CPU
	l1d      *cache.Level
	iq       []*uop
	mshrFull uint64
}

func beginOracle(c *CPU, l1d *cache.Level) issueOracle {
	return issueOracle{c: c, l1d: l1d, iq: c.issueQueue(), mshrFull: l1d.Stats.MSHRFull}
}

func oracleReady(t *thread, dep, now uint64) bool {
	if dep == noDep || dep < t.headSeq {
		return true
	}
	p := t.slot(dep)
	return p.seq != dep || p.state == stDone || (p.state == stIssued && p.doneAt <= now)
}

func (o issueOracle) verify(tb testing.TB, now uint64) {
	tb.Helper()
	c := o.c
	intLeft, fpLeft := c.cfg.IntIssueWidth, c.cfg.FPIssueWidth
	left := map[[2]bool]int{ // functional units by {fp, long}
		{false, false}: c.cfg.IntALU, {false, true}: c.cfg.IntMult,
		{true, false}: c.cfg.FPALU, {true, true}: c.cfg.FPMult,
	}
	var rejected uint64
	for _, u := range o.iq {
		t := c.threads[u.tid]
		issued := u.state == stIssued && u.issuedAt == now
		want := false
		if intLeft > 0 || fpLeft > 0 {
			fp := u.in.Kind == workload.FPOp
			class := [2]bool{fp, u.in.Lat >= 7}
			width := &intLeft
			if fp {
				width = &fpLeft
			}
			if oracleReady(t, u.dep1, now) && oracleReady(t, u.dep2, now) && *width > 0 && left[class] > 0 {
				want = true
				if u.in.Kind == workload.Load && !issued {
					want = false // attempted, rejected by the MSHR file
					rejected++
				}
			}
			if want {
				*width--
				left[class]--
			}
		}
		if want != issued {
			tb.Fatalf("cycle %d: t%d seq %d (%v): issued = %v, full-queue scan says %v",
				now, u.tid, u.seq, u.in.Kind, issued, want)
		}
		if !issued && u.state != stWaiting {
			tb.Fatalf("cycle %d: t%d seq %d left the waiting state without issuing", now, u.tid, u.seq)
		}
	}
	got := o.l1d.Stats.MSHRFull - o.mshrFull
	if c.psHead < len(c.pendingStores) {
		got-- // drainStores ended on one rejected store
	}
	if got != rejected {
		tb.Fatalf("cycle %d: %d load attempts rejected, full-queue scan says %d", now, got, rejected)
	}
}

// raw is a Source that replays its instructions exactly (script forces
// Lat >= 1), then independent single-cycle ops.
type raw struct {
	ins []workload.Instr
	i   int
}

func (s *raw) Next() workload.Instr {
	in := workload.Instr{Kind: workload.IntOp, Lat: 1}
	if s.i < len(s.ins) {
		in = s.ins[s.i]
	}
	s.i++
	in.PC = uint64(s.i) * 4
	return in
}

func missLoad(i int) workload.Instr {
	return workload.Instr{Kind: workload.Load, Addr: uint64(0x100000 + i*4096), Lat: 1}
}

// parkedOn lists the seqs on producer seq's consumer list, head first.
func parkedOn(t *thread, seq uint64) []uint64 {
	var out []uint64
	for l := t.slot(seq).cons; l != 0; {
		v := &t.rob[(l-1)>>1]
		out = append(out, v.seq)
		l = v.next[(l-1)&1]
	}
	return out
}

// Two mispredicted branches squash the same consumers twice while the load
// they wait on is still in flight. Each replay re-enters the same seqs and
// slots, so a link the squash left behind would alias a live node.
func TestSquashedConsumersReparkOnInFlightLoad(t *testing.T) {
	src := &raw{ins: []workload.Instr{
		missLoad(0), // seq 0: in flight for 200 cycles
		{Kind: workload.Branch, Lat: 1, Mispredict: true}, // seq 1
		{Kind: workload.IntOp, Lat: 1, Dep1: 2},           // seq 2 <- load
		{Kind: workload.Branch, Lat: 1, Mispredict: true}, // seq 3
		{Kind: workload.IntOp, Lat: 1, Dep1: 4},           // seq 4 <- load
		{Kind: workload.IntOp, Lat: 1, Dep1: 1, Dep2: 5},  // seq 5 <- seq 4, load
	}}
	r := newRig(t, DefaultConfig(), src)
	th := r.cpu.threads[0]
	var sawParked [3]bool // after 0, 1, 2 squashes
	for c := uint64(1); c <= 120; c++ {
		r.step(c)
		if th.nextSeq >= 6 && th.slot(0).doneAt == pendingDone {
			if got := parkedOn(th, 0); fmt.Sprint(got) != "[5 4 2]" {
				t.Fatalf("cycle %d, %d squashes: load's consumer list = %v, want [5 4 2]", c, th.squashes, got)
			}
			if got := parkedOn(th, 4); fmt.Sprint(got) != "[5]" {
				t.Fatalf("cycle %d: seq 4's consumer list = %v, want [5]", c, got)
			}
			sawParked[th.squashes] = true
		}
	}
	if th.squashes != 2 || sawParked != [3]bool{true, true, true} {
		t.Fatalf("squashes = %d, consumers seen parked after each = %v; want 2 squashes, all true", th.squashes, sawParked)
	}
	r.run(400)
	if th.committed < 6 {
		t.Fatalf("committed %d: the re-parked consumers never woke", th.committed)
	}
}

// dep1 == dep2 names one producer: one link, one count, one wakeup.
func TestSameProducerTwice(t *testing.T) {
	src := &raw{ins: []workload.Instr{
		missLoad(0),
		{Kind: workload.IntOp, Lat: 1, Dep1: 1, Dep2: 1},
	}}
	r := newRig(t, DefaultConfig(), src)
	th := r.cpu.threads[0]
	r.run(30)
	if u := th.slot(1); u.state != stWaiting || u.unknown != 1 || fmt.Sprint(parkedOn(th, 0)) != "[1]" {
		t.Fatalf("consumer state %d unknown %d, load's list %v; want waiting, 1, [1]", u.state, u.unknown, parkedOn(th, 0))
	}
	r.run(400)
	if th.committed < 2 {
		t.Fatalf("committed %d: the consumer never woke", th.committed)
	}
}

// A zero-latency producer (trace-style) completes in the cycle it issues, so
// its consumer must issue in the same scan: the wakeup inserts it into the
// ready set between entries the scan has not reached yet.
func TestZeroLatencyProducerWakesWithinTheScan(t *testing.T) {
	src := &raw{ins: []workload.Instr{
		{Kind: workload.IntOp, Lat: 0},          // seq 0
		{Kind: workload.IntOp, Lat: 1},          // seq 1: ready, between producer and consumer
		{Kind: workload.IntOp, Lat: 1, Dep1: 2}, // seq 2 <- seq 0
		{Kind: workload.IntOp, Lat: 1},          // seq 3: ready, behind the consumer
	}}
	r := newRig(t, DefaultConfig(), src)
	th := r.cpu.threads[0]
	r.run(40)
	at := th.slot(0).issuedAt
	for s := uint64(0); s < 4; s++ {
		if u := th.slot(s); u.state == stWaiting || u.issuedAt != at {
			t.Fatalf("seq %d issued at %d (state %d), want cycle %d with the rest", s, u.issuedAt, u.state, at)
		}
	}
}

// A fill wakes a consumer older than everything already in the ready set:
// it must enter at the front, not the back.
func TestFillWakesConsumerAheadOfYoungerReadyEntries(t *testing.T) {
	ins := []workload.Instr{
		missLoad(0),                             // seq 0
		{Kind: workload.IntOp, Lat: 1, Dep1: 1}, // seq 1 <- load
	}
	for i := 0; i < 30; i++ { // independent long FP ops: ready at once, two units
		ins = append(ins, workload.Instr{Kind: workload.FPOp, Lat: 7})
	}
	r := newRigLat(t, DefaultConfig(), 4, &raw{ins: ins})
	th := r.cpu.threads[0]
	for c := uint64(1); c <= 60; c++ {
		r.q.RunUntil(c)
		if u := th.slot(1); th.nextSeq > 1 && u.seq == 1 && u.state == stWaiting && u.unknown == 0 {
			if len(r.cpu.ready) < 2 || r.cpu.ready[0] != u {
				t.Fatalf("cycle %d: woken consumer not at the head of a %d-entry ready set", c, len(r.cpu.ready))
			}
			return
		}
		r.cpu.Tick(c)
		checkWakeup(t, r.cpu, c)
	}
	t.Fatal("the fill never found the consumer waiting")
}

// loop cycles through a pattern forever.
type loop struct {
	ins []workload.Instr
	i   int
}

func (s *loop) Next() workload.Instr {
	in := s.ins[s.i%len(s.ins)]
	s.i++
	in.PC = uint64(s.i%1024) * 4
	return in
}

// A squash-heavy stream must run allocation-free once its buffers have
// grown: a squash copies nothing, and the in-flight-load deque reuses its
// capacity instead of re-slicing it away from the front.
func TestSquashHeavyStreamDoesNotAllocate(t *testing.T) {
	// One L1-resident load in six instructions keeps any cycle's events under
	// the event ring's initial bucket capacity, so nothing but the core's own
	// buffers can be growing.
	var ins []workload.Instr
	for i := 0; i < 6; i++ {
		ins = append(ins,
			workload.Instr{Kind: workload.Load, Addr: uint64(i * 64), Lat: 1},
			workload.Instr{Kind: workload.IntOp, Lat: 1, Dep1: 1},
			workload.Instr{Kind: workload.IntOp, Lat: 1},
			workload.Instr{Kind: workload.IntOp, Lat: 1, Dep1: 2, Dep2: 3},
			workload.Instr{Kind: workload.Store, Addr: uint64(i * 64), Lat: 1, Dep1: 1},
			workload.Instr{Kind: workload.IntOp, Lat: 1})
	}
	ins = append(ins, workload.Instr{Kind: workload.Branch, Lat: 1, Mispredict: true, Dep1: 3})
	r := newRig(t, DefaultConfig(), &loop{ins: ins})
	now := uint64(0)
	run := func() {
		for i := 0; i < 500; i++ {
			now++
			r.q.RunUntil(now)
			r.cpu.Tick(now)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	squashes := r.cpu.Squashes(0)
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("%.1f allocations per 500 warm cycles, want 0", avg)
	}
	if got := r.cpu.Squashes(0) - squashes; got < 100 {
		t.Fatalf("only %d squashes in the measured window: the stream is not squash-heavy", got)
	}
}

// Loading rebuilds the wakeup structures from the issue queue's order alone.
// The rebuild must reproduce the live machine's counts, lists and ready set
// exactly; ready times may differ only where both are already in the past.
func TestRestoreRebuildsWakeupState(t *testing.T) {
	mk := func() *rig {
		return newQuiesceRig(t, DefaultConfig(), realGen(t, "mcf", 0), realGen(t, "art", 1), realGen(t, "gzip", 2))
	}
	live := mk()
	for _, stop := range []uint64{500, 3000, 9000} {
		for c := live.cpu.Cycles + 1; c <= stop; c++ {
			live.step(c)
		}
		var w snap.Writer
		if err := live.cpu.Snap(snap.Saving(&w)); err != nil {
			t.Fatal(err)
		}
		rd, err := snap.NewReader(w.Frame("TEST", 1), "TEST", 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh := mk()
		if err := fresh.cpu.Snap(snap.Loading(rd)); err != nil {
			t.Fatal(err)
		}
		checkWakeup(t, fresh.cpu, stop)
		key := func(u *uop) [2]uint64 { return [2]uint64{uint64(u.tid), u.seq} }
		if len(fresh.cpu.ready) != len(live.cpu.ready) {
			t.Fatalf("cycle %d: ready set has %d entries restored, %d live", stop, len(fresh.cpu.ready), len(live.cpu.ready))
		}
		for i, u := range live.cpu.ready {
			if key(fresh.cpu.ready[i]) != key(u) {
				t.Fatalf("cycle %d: ready[%d] = %v restored, %v live", stop, i, key(fresh.cpu.ready[i]), key(u))
			}
		}
		waiting := 0
		for i, lt := range live.cpu.threads {
			ft := fresh.cpu.threads[i]
			for s := lt.headSeq; s < lt.nextSeq; s++ {
				lu, fu := lt.slot(s), ft.slot(s)
				// Whole-uop equality, so a field the walk forgets shows up here.
				// Stamps carry only an order (the ready set's, compared above).
				l, f := *lu, *fu
				l.stamp, f.stamp = 0, 0
				if l.readyAt <= stop && f.readyAt <= stop {
					l.readyAt, f.readyAt = 0, 0 // both in the past: no comparison can tell them apart
				}
				for k, dep := range [2]uint64{lu.dep1, lu.dep2} {
					parked := lu.state == stWaiting && dep != noDep && dep >= lt.headSeq &&
						!(k == 1 && dep == lu.dep1) && lt.slot(dep).doneAt == pendingDone
					if !parked {
						l.next[k], f.next[k] = 0, 0 // a node off every list keeps its last link
					}
				}
				if l != f {
					t.Fatalf("cycle %d: t%d seq %d restored as\n%+v\nlive\n%+v", stop, i, s, f, l)
				}
				if lu.state == stWaiting {
					waiting++
				}
			}
		}
		if waiting == 0 {
			t.Fatalf("cycle %d: empty issue queue, nothing compared", stop)
		}
	}
}
