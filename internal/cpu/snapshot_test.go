package cpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smtdram/internal/snap"
)

// Every field of the core's four state structs is one of:
//
//	serialized — walked by Snap, so written when saving and assigned when
//	             loading (a deque is walked head-normalized: buffer and head
//	             index together; a ring over the seqs its cursors bound);
//	derived    — rebuilt by a loading Snap from serialized state (snapshot.go's
//	             file comment says how and why that is exact);
//	wiring     — configuration, links to other components, and scratch
//	             buffers and pools that carry nothing across a cycle; the
//	             restore target already has its own.
//
// A new field fails this test until it is listed, which is the moment to
// decide which of the three it is and to teach snapshot.go about it.
var snapshotFieldClass = map[string]string{
	"uop.in":       "serialized",
	"uop.seq":      "serialized",
	"uop.epoch":    "serialized",
	"uop.doneAt":   "serialized",
	"uop.issuedAt": "serialized",
	"uop.cons":     "derived",
	"uop.iq":       "derived",
	"uop.tid":      "derived", // the index of the thread whose ROB is being read
	"uop.state":    "serialized",

	// The issue-queue table is rebuilt whole from the issue queue's order.
	"iqEntry.u":       "derived",
	"iqEntry.dep":     "derived", // the frame's per-slot dep seqs are computed on save, discarded on load
	"iqEntry.readyAt": "derived",
	"iqEntry.stamp":   "derived", // only the order survives, as the issue-queue section's order
	"iqEntry.next":    "derived",
	"iqEntry.unknown": "derived",

	"thread.id":                "wiring",
	"thread.gen":               "wiring", // the caller restores instruction sources
	"thread.rob":               "serialized",
	"thread.robMask":           "wiring",
	"thread.headSeq":           "serialized",
	"thread.nextSeq":           "serialized",
	"thread.fetchSeq":          "serialized",
	"thread.dispatched":        "serialized",
	"thread.genSeq":            "serialized",
	"thread.pending":           "serialized", // [dispatched, genSeq) only
	"thread.feReady":           "serialized", // [nextSeq, fetchSeq) only
	"thread.feMask":            "wiring",
	"thread.epoch":             "serialized",
	"thread.iqInt":             "serialized",
	"thread.iqFP":              "serialized",
	"thread.lq":                "serialized",
	"thread.sq":                "serialized",
	"thread.committed":         "serialized",
	"thread.inFlight":          "serialized",
	"thread.ifHead":            "serialized",
	"thread.curILine":          "serialized",
	"thread.imissPending":      "serialized",
	"thread.fetchBlockedUntil": "serialized",
	"thread.warmedAt":          "serialized",
	"thread.finishedAt":        "serialized",
	"thread.squashes":          "serialized",
	"thread.loads":             "serialized",
	"thread.stores":            "serialized",
	"thread.imisses":           "serialized",
	"thread.gated":             "serialized",

	"CPU.cfg":            "wiring",
	"CPU.q":              "wiring",
	"CPU.threads":        "wiring", // the slice; each thread's state is listed above
	"CPU.l1i":            "wiring",
	"CPU.l1d":            "wiring",
	"CPU.iq":             "derived",
	"CPU.iqFree":         "derived",
	"CPU.ready":          "derived",
	"CPU.nextStamp":      "derived",
	"CPU.rrFetch":        "serialized",
	"CPU.rrDispatch":     "serialized",
	"CPU.rrCommit":       "serialized",
	"CPU.intIQUsed":      "serialized",
	"CPU.fpIQUsed":       "serialized",
	"CPU.lqUsed":         "serialized",
	"CPU.sqUsed":         "serialized",
	"CPU.pendingStores":  "serialized",
	"CPU.psHead":         "serialized",
	"CPU.scratchThreads": "wiring",
	"CPU.scratchOrder":   "wiring",
	"CPU.freeLoadFills":  "wiring",
	"CPU.freeIFills":     "wiring",
	"CPU.freeBrEvents":   "wiring",
	"CPU.warmup":         "wiring", // SetTarget, from the run's configuration
	"CPU.target":         "wiring",
	"CPU.memPressure":    "wiring",
	"CPU.wake":           "serialized",
	"CPU.acted":          "serialized",
	"CPU.Cycles":         "serialized",
	"CPU.TotalCommitted": "serialized",
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(uop{}), reflect.TypeOf(iqEntry{}), reflect.TypeOf(thread{}), reflect.TypeOf(CPU{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			switch snapshotFieldClass[name] {
			case "serialized", "derived", "wiring":
			case "":
				t.Errorf("%s is not classified: list it as serialized, derived or wiring, and cover it in snapshot.go", name)
			default:
				t.Errorf("%s has unknown class %q", name, snapshotFieldClass[name])
			}
		}
	}
	for name := range snapshotFieldClass {
		if !seen[name] {
			t.Errorf("%s is classified but no longer exists", name)
		}
	}
}

// A frame whose cursors break one of checkCursors' invariants would index a
// ring outside what it holds, so loading rejects it. Each case breaks exactly
// one invariant of a running machine's thread before saving.
func TestRestoreRejectsBrokenCursors(t *testing.T) {
	cfg := DefaultConfig()
	mk := func() *rig { return newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "gzip", 1)) }
	for _, tc := range []struct {
		broken string
		mutate func(th *thread)
	}{
		{"", func(*thread) {}},
		{"stream order", func(th *thread) { th.fetchSeq = th.genSeq + 1 }},
		{"dispatch order", func(th *thread) { th.dispatched = th.nextSeq - 1 }},
		{"pending ring", func(th *thread) { th.genSeq = th.dispatched + uint64(cfg.FrontendCap) + 1 }},
		{"frontend ring", func(th *thread) {
			over := th.nextSeq + uint64(cfg.FrontendCap) + 1
			th.fetchSeq, th.dispatched, th.genSeq = over, over, over
		}},
		{"ROB ring", func(th *thread) {
			over := th.headSeq + uint64(cfg.ROBPerThread) + 1
			th.nextSeq, th.fetchSeq, th.dispatched, th.genSeq = over, over, over, over
		}},
	} {
		live := mk()
		live.run(3_000)
		th := live.cpu.threads[1]
		if th.nextSeq == th.headSeq {
			t.Fatal("thread 1's ROB is empty: no cursor to break")
		}
		tc.mutate(th)
		err := reload(t, live.cpu, mk().cpu)
		switch {
		case tc.broken == "" && err != nil:
			t.Fatalf("intact frame rejected: %v", err)
		case tc.broken == "":
		case !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.broken):
			t.Errorf("frame breaking the %q invariant: restore error %v", tc.broken, err)
		}
	}
}

// reload saves from's core and loads the frame into to, returning the load's
// error.
func reload(t *testing.T, from, to *CPU) error {
	t.Helper()
	var w snap.Writer
	if err := from.Snap(snap.Saving(&w)); err != nil {
		t.Fatal(err)
	}
	rd, err := snap.NewReader(w.Frame("TEST", 1), "TEST", 1)
	if err != nil {
		t.Fatal(err)
	}
	return to.Snap(snap.Loading(rd))
}

// A frame whose issue-queue section disagrees with the ROBs and occupancy
// counts beside it could later ask the table for an entry it does not have,
// so loading rejects it. Each case breaks one agreement of a running machine.
func TestRestoreRejectsBrokenIssueQueue(t *testing.T) {
	cfg := DefaultConfig()
	mk := func() *rig { return newQuiesceRig(t, cfg, realGen(t, "mcf", 0), realGen(t, "gzip", 1)) }
	for _, tc := range []struct {
		broken string
		mutate func(c *CPU) bool // false: the machine has nothing to break
	}{
		{"", func(*CPU) bool { return true }},
		{"capacity", func(c *CPU) bool { c.intIQUsed = cfg.IntIQ + 1; return true }},
		{"occupancy", func(c *CPU) bool { c.intIQUsed--; return c.intIQUsed >= 0 }},
		{"listed in the issue queue", func(c *CPU) bool {
			for _, th := range c.threads {
				for s := th.headSeq; s < th.nextSeq; s++ {
					if u := th.slot(s); u.state != stWaiting {
						u.state = stWaiting // waiting, but holding no entry
						return true
					}
				}
			}
			return false
		}},
	} {
		live := mk()
		live.run(3_000)
		if !tc.mutate(live.cpu) {
			t.Fatalf("%q: nothing to break at cycle 3000", tc.broken)
		}
		err := reload(t, live.cpu, mk().cpu)
		switch {
		case tc.broken == "" && err != nil:
			t.Fatalf("intact frame rejected: %v", err)
		case tc.broken == "":
		case !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.broken):
			t.Errorf("frame breaking the issue queue's %q: restore error %v", tc.broken, err)
		}
	}
}
