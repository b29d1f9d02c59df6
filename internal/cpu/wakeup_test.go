package cpu

import (
	"fmt"
	"slices"
	"testing"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

// Tests for the wakeup-driven issue stage (DESIGN §11): a structural
// invariant checker and a full-queue-scan oracle, both run on every cycle of
// every rig-driven test in this package (rig.step), plus scripted cases that
// steer the structures into their corners.

// pendingProducers counts entry e's distinct in-ROB producers whose
// completion time is unknown.
func pendingProducers(t *thread, e *iqEntry) int {
	n := 0
	for k, dep := range e.dep {
		if dep != noDep && dep >= t.headSeq && !(k == 1 && dep == e.dep[0]) && t.slot(dep).doneAt == pendingDone {
			n++
		}
	}
	return n
}

// checkWakeup asserts the issue-queue table's invariants:
//   - the free list and the live waiting uops' entries partition the table,
//     each entry names its uop back, and its producer seqs are the ones its
//     uop's seq and deps give;
//   - only a producer whose completion time is unknown has a consumer list;
//     the list is newest-first and each node is a live waiting uop's entry
//     naming that producer through the dep the node serves;
//   - an entry's unknown count is the number of its distinct in-ROB
//     producers with unknown completion, and it is reachable from exactly
//     that many list heads;
//   - it is in the ready set iff that count is zero, and the ready set holds
//     nothing else and is strictly age-ordered.
func checkWakeup(tb testing.TB, c *CPU, now uint64) {
	tb.Helper()
	fail := func(format string, args ...any) {
		tb.Helper()
		tb.Fatalf("cycle %d: wakeup invariant: %s", now, fmt.Sprintf(format, args...))
	}
	free := make([]bool, len(c.iq))
	holder := make([]*uop, len(c.iq)) // by entry: the waiting uop holding it
	for _, idx := range c.iqFree {
		if int(idx) >= len(c.iq) || free[idx] {
			fail("free list holds entry %d twice or out of range", idx)
		}
		free[idx] = true
	}
	inReady := make([]bool, len(c.iq))
	reached := make([]uint8, len(c.iq)) // by entry: list heads it is reachable from
	for i, idx := range c.ready {
		e := &c.iq[idx]
		if i > 0 && c.iq[c.ready[i-1]].stamp >= e.stamp {
			fail("ready set out of age order at %d: stamps %d, %d", i, c.iq[c.ready[i-1]].stamp, e.stamp)
		}
		u := e.u
		if u == nil {
			fail("ready set holds never-used entry %d", idx)
		}
		t := c.threads[u.tid]
		if u.epoch == poisoned || u.state != stWaiting || u.seq < t.headSeq || u.seq >= t.nextSeq || t.slot(u.seq) != u || u.iq != idx+1 {
			fail("ready set holds a dead entry %d: t%d seq %d state %d epoch %#x iq %d", idx, u.tid, u.seq, u.state, u.epoch, u.iq)
		}
		inReady[idx] = true
	}
	for _, t := range c.threads {
		var lastStamp uint64
		for s := t.headSeq; s < t.nextSeq; s++ {
			u := t.slot(s)
			if u.seq != s || u.epoch == poisoned || int(u.tid) != t.id {
				fail("t%d seq %d: live ROB range holds t%d seq %d epoch %#x", t.id, s, u.tid, u.seq, u.epoch)
			}
			pending := u.doneAt == pendingDone
			inFlightLoad := u.state == stIssued && u.in.Kind == workload.Load
			if (u.state == stWaiting && !pending) || (pending && u.state != stWaiting && !inFlightLoad) {
				fail("t%d seq %d: state %d with doneAt %#x", t.id, s, u.state, u.doneAt)
			}
			if (u.state == stWaiting) != (u.iq != 0) {
				fail("t%d seq %d: state %d holds entry %d", t.id, s, u.state, int(u.iq)-1)
			}
			if u.iq != 0 {
				idx := u.iq - 1
				if int(idx) >= len(c.iq) || free[idx] || holder[idx] != nil {
					fail("t%d seq %d: entry %d out of range, free, or already held", t.id, s, idx)
				}
				holder[idx] = u
				e := &c.iq[idx]
				if e.u != u || e.dep != [2]uint64{depSeq(s, u.in.Dep1), depSeq(s, u.in.Dep2)} {
					fail("t%d seq %d: entry %d names %p with deps %v", t.id, s, idx, e.u, e.dep)
				}
				if e.stamp < lastStamp {
					fail("t%d seq %d: dispatch stamps not monotonic within the thread", t.id, s)
				}
				lastStamp = e.stamp
			}
			if !pending && u.cons != 0 {
				fail("t%d seq %d: completion known at %d but consumers still parked", t.id, s, u.doneAt)
			}
			prev := ^uint64(0)
			for l := u.cons; l != 0; {
				idx, k := uint16((l-1)>>1), (l-1)&1
				if int(idx) >= len(c.iq) {
					fail("t%d seq %d: list link names entry %d of %d", t.id, s, idx, len(c.iq))
				}
				e := &c.iq[idx]
				v := e.u
				if v == nil || v.iq != idx+1 || int(v.tid) != t.id || v.seq <= s || v.seq >= t.nextSeq || v.epoch == poisoned || v.state != stWaiting {
					fail("t%d seq %d: list holds a dead, squashed or freed entry %d", t.id, s, idx)
				}
				if e.dep[k] != s || (k == 1 && e.dep[0] == e.dep[1]) {
					fail("t%d seq %d: list node (seq %d, dep %d) does not name this producer", t.id, s, v.seq, k)
				}
				if v.seq >= prev {
					fail("t%d seq %d: list not newest-first: seq %d after %d", t.id, s, v.seq, prev)
				}
				prev = v.seq
				reached[idx]++
				l = e.next[k]
			}
		}
	}
	for idx, u := range holder {
		if free[idx] {
			if inReady[idx] || reached[idx] != 0 {
				fail("free entry %d is in the ready set or on a list", idx)
			}
			continue
		}
		if u == nil {
			fail("entry %d is neither free nor held by a waiting uop", idx)
		}
		e := &c.iq[idx]
		want := pendingProducers(c.threads[u.tid], e)
		if int(e.unknown) != want || int(reached[idx]) != want {
			fail("t%d seq %d: unknown = %d, on %d lists, want %d", u.tid, u.seq, e.unknown, reached[idx], want)
		}
		if inReady[idx] != (want == 0) {
			fail("t%d seq %d: in ready set = %v with %d unknown producers", u.tid, u.seq, inReady[idx], want)
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

func oracleReady(t *thread, dist int16, seq, now uint64) bool {
	dep := depSeq(seq, dist)
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
			if oracleReady(t, u.in.Dep1, u.seq, now) && oracleReady(t, u.in.Dep2, u.seq, now) && *width > 0 && left[class] > 0 {
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
func parkedOn(c *CPU, t *thread, seq uint64) []uint64 {
	var out []uint64
	for l := t.slot(seq).cons; l != 0; {
		e := &c.iq[(l-1)>>1]
		out = append(out, e.u.seq)
		l = e.next[(l-1)&1]
	}
	return out
}

// entryOf returns waiting uop u's issue-queue entry.
func entryOf(c *CPU, u *uop) *iqEntry { return &c.iq[u.iq-1] }

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
			if got := parkedOn(r.cpu, th, 0); fmt.Sprint(got) != "[5 4 2]" {
				t.Fatalf("cycle %d, %d squashes: load's consumer list = %v, want [5 4 2]", c, th.squashes, got)
			}
			if got := parkedOn(r.cpu, th, 4); fmt.Sprint(got) != "[5]" {
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

// Equal deps name one producer: one link, one count, one wakeup.
func TestSameProducerTwice(t *testing.T) {
	src := &raw{ins: []workload.Instr{
		missLoad(0),
		{Kind: workload.IntOp, Lat: 1, Dep1: 1, Dep2: 1},
	}}
	r := newRig(t, DefaultConfig(), src)
	th := r.cpu.threads[0]
	r.run(30)
	if u := th.slot(1); u.state != stWaiting || entryOf(r.cpu, u).unknown != 1 || fmt.Sprint(parkedOn(r.cpu, th, 0)) != "[1]" {
		t.Fatalf("consumer state %d, load's list %v; want waiting with 1 unknown, [1]", u.state, parkedOn(r.cpu, th, 0))
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
		if u := th.slot(1); th.nextSeq > 1 && u.seq == 1 && u.state == stWaiting && entryOf(r.cpu, u).unknown == 0 {
			if len(r.cpu.ready) < 2 || r.cpu.ready[0] != u.iq-1 {
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

// Loading rebuilds the issue-queue table from the issue queue's order alone.
// The rebuild must reproduce the live machine's counts, lists and ready set
// exactly; entry indices may differ, and ready times only where both are
// already in the past.
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
		if d := compareWakeup(live.cpu, fresh.cpu, stop); d != "" {
			t.Fatalf("cycle %d: %s", stop, d)
		}
		if len(live.cpu.iqFree) == len(live.cpu.iq) {
			t.Fatalf("cycle %d: empty issue queue, nothing compared", stop)
		}
	}
}

// compareWakeup reports the first difference between two machines' ROBs and
// issue-queue tables at now, or "": every ROB field but the entry index,
// the ready set by the uops it names, every consumer list by the seqs it
// reaches, and each waiting uop's entry but its index, stamp and links.
// Ready times are compared only where one lies ahead of now: in the past no
// comparison can tell them apart.
func compareWakeup(a, b *CPU, now uint64) string {
	key := func(c *CPU, idx uint16) [2]uint64 { u := c.iq[idx].u; return [2]uint64{uint64(u.tid), u.seq} }
	if len(a.ready) != len(b.ready) {
		return fmt.Sprintf("ready set has %d entries against %d", len(a.ready), len(b.ready))
	}
	for i := range a.ready {
		if ka, kb := key(a, a.ready[i]), key(b, b.ready[i]); ka != kb {
			return fmt.Sprintf("ready[%d] names %v against %v", i, ka, kb)
		}
	}
	for i, ta := range a.threads {
		tb := b.threads[i]
		for s := ta.headSeq; s < ta.nextSeq; s++ {
			ua, ub := *ta.slot(s), *tb.slot(s)
			if la, lb := parkedOn(a, ta, s), parkedOn(b, tb, s); !slices.Equal(la, lb) {
				return fmt.Sprintf("t%d seq %d: consumer list %v against %v", i, s, la, lb)
			}
			var ea, eb iqEntry
			if (ua.iq != 0) != (ub.iq != 0) {
				return fmt.Sprintf("t%d seq %d: issue-queue entry %d against %d", i, s, ua.iq, ub.iq)
			}
			if ua.iq != 0 {
				ea, eb = a.iq[ua.iq-1], b.iq[ub.iq-1]
				ea.u, eb.u = nil, nil
				ea.stamp, eb.stamp = 0, 0
				ea.next, eb.next = [2]link{}, [2]link{}
				if ea.readyAt <= now && eb.readyAt <= now {
					ea.readyAt, eb.readyAt = 0, 0
				}
			}
			// Whole-struct equality, so a field the walk forgets shows up here.
			ua.iq, ub.iq = 0, 0
			ua.cons, ub.cons = 0, 0
			if ua != ub || ea != eb {
				return fmt.Sprintf("t%d seq %d is\n%+v %+v\nagainst\n%+v %+v", i, s, ua, ea, ub, eb)
			}
		}
	}
	return ""
}

// fuzzStreams turns fuzz bytes into two threads' looped streams, four bytes
// an instruction, alternating threads: the kind and branch flags, a latency
// of 0–8, two deps of 0–8 (equal ones included), and a memory address from a
// 32-line pool over 8 L1D sets, so hits, misses, evictions and a full MSHR
// file all occur. A thread the bytes give nothing runs independent ops.
func fuzzStreams(data []byte) [2][]workload.Instr {
	nop := workload.Instr{Kind: workload.IntOp, Lat: 1}
	out := [2][]workload.Instr{{nop}, {nop}}
	if len(data) >= 8 {
		out = [2][]workload.Instr{}
	}
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		line := uint64(b[3] % 32)
		in := workload.Instr{
			Kind: workload.Kind(b[0] % 5),
			Lat:  uint32(b[1] % 9),
			Dep1: int16(b[2] % 9),
			Dep2: int16(b[2] / 9 % 9),
			Addr: 0x10000 + line%8*64 + line/8*4096,
		}
		if in.Kind == workload.Branch {
			in.Mispredict, in.Taken = b[0]&0x10 != 0, b[0]&0x20 != 0
		}
		out[i/4%2] = append(out[i/4%2], in)
	}
	return out
}

// walk saves or loads everything a rig's run depends on but its sources: the
// core, both L1s and the event queue, in the order core.Simulator's walk
// uses. The L1D must carry snap ID 1.
func (r *rig) walk(c *snap.Codec) error {
	resolve := func(ref *snap.Ref, role uint8) (any, error) {
		switch ref.Kind {
		case snap.KCPULoadFill, snap.KCPUIFill, snap.KCPUBranch:
			return r.cpu.ResolveRef(ref, role)
		case snap.KCacheMSHR, snap.KCacheWBRetry:
			if len(ref.Args) > 0 && ref.Args[0] == 1 {
				return r.l1d.ResolveRef(ref)
			}
			return r.l1i.ResolveRef(ref)
		}
		return nil, fmt.Errorf("%w: ref kind %d", snap.ErrCorrupt, ref.Kind)
	}
	if err := r.cpu.Snap(c); err != nil {
		return err
	}
	for _, l := range []*cache.Level{r.l1i, r.l1d} {
		if err := l.Snap(c, resolve); err != nil {
			return err
		}
	}
	return r.q.Snap(c, resolve)
}

// FuzzWakeup drives two fuzz-scripted threads through the issue queue with the
// table's invariants and the full-queue issue oracle checked on every cycle
// (rig.step). At a drawn cycle it saves the rig and restores it into a fresh
// one, then steps both in lockstep: the restored table must behave as the
// live one, cycle for cycle.
func FuzzWakeup(f *testing.F) {
	seed := uint32(1)
	for n := 0; n < 4; n++ {
		data := make([]byte, 128)
		for i := range data {
			seed = seed*1664525 + 1013904223
			data[i] = byte(seed >> 24)
		}
		f.Add(data, uint16(40+70*n))
	}
	// Two loads to one set, consumers naming one producer twice, and a
	// mispredicted branch, restored at cycle 5.
	f.Add([]byte{2, 1, 0, 0, 2, 1, 0, 8, 0, 1, 10, 0, 0, 1, 10, 0, 0x13, 1, 1, 0, 0, 1, 0, 0}, uint16(5))
	const cycles = 300
	f.Fuzz(func(t *testing.T, data []byte, at uint16) {
		streams := fuzzStreams(data)
		mk := func(pos [2]int) *rig {
			r := newRigLat(t, DefaultConfig(), 30, &loop{ins: streams[0], i: pos[0]}, &loop{ins: streams[1], i: pos[1]})
			r.l1d.SetSnapID(1)
			return r
		}
		live := mk([2]int{})
		saveAt := 1 + uint64(at)%(cycles-1)
		for c := uint64(1); c <= saveAt; c++ {
			live.step(c)
		}
		var w snap.Writer
		if err := live.walk(snap.Saving(&w)); err != nil {
			t.Fatal(err)
		}
		rd, err := snap.NewReader(w.Frame("TEST", 1), "TEST", 1)
		if err != nil {
			t.Fatal(err)
		}
		var pos [2]int
		for i, th := range live.cpu.threads {
			pos[i] = th.gen.(*loop).i
		}
		fresh := mk(pos)
		if err := fresh.walk(snap.Loading(rd)); err != nil {
			t.Fatalf("restoring the cycle-%d frame: %v", saveAt, err)
		}
		for c := saveAt; c <= cycles; c++ {
			if c > saveAt {
				live.step(c)
				fresh.step(c)
			}
			if l, r := live.cpu.Fingerprint(), fresh.cpu.Fingerprint(); l != r {
				t.Fatalf("cycle %d (restored at %d): live\n%s\nrestored\n%s", c, saveAt, l, r)
			}
			if d := compareWakeup(live.cpu, fresh.cpu, c); d != "" {
				t.Fatalf("cycle %d (restored at %d): %s", c, saveAt, d)
			}
			if live.l1d.Stats != fresh.l1d.Stats {
				t.Fatalf("cycle %d (restored at %d): L1D stats %+v live, %+v restored", c, saveAt, live.l1d.Stats, fresh.l1d.Stats)
			}
		}
	})
}
