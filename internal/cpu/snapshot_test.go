package cpu

import (
	"reflect"
	"testing"
)

// Every field of the core's three state structs is one of:
//
//	serialized — walked by Snap, so written when saving and assigned when
//	             loading (a deque is walked head-normalized: buffer and head
//	             index together);
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
	"uop.tid":      "derived", // the index of the thread whose ROB is being read
	"uop.state":    "serialized",
	"uop.unknown":  "derived",
	"uop.doneAt":   "serialized",
	"uop.issuedAt": "serialized",
	"uop.dep1":     "serialized",
	"uop.dep2":     "serialized",
	"uop.readyAt":  "derived",
	"uop.stamp":    "derived", // only the order survives, as the issue-queue section's order
	"uop.cons":     "derived",
	"uop.next":     "derived",

	"thread.id":                "wiring",
	"thread.gen":               "wiring", // the caller restores instruction sources
	"thread.peeked":            "serialized",
	"thread.hasPeeked":         "serialized",
	"thread.replay":            "serialized",
	"thread.rpHead":            "serialized",
	"thread.frontend":          "serialized",
	"thread.feHead":            "serialized",
	"thread.rob":               "serialized",
	"thread.robMask":           "wiring",
	"thread.headSeq":           "serialized",
	"thread.nextSeq":           "serialized",
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
	for _, typ := range []reflect.Type{reflect.TypeOf(uop{}), reflect.TypeOf(thread{}), reflect.TypeOf(CPU{})} {
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
