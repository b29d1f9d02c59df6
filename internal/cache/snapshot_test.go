package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

// Every field of the hierarchy's state structs is one of:
//
//	serialized — walked by Snap (snapshot.go), so it is in the format (a map
//	             as its entries in key order);
//	wiring     — configuration and what follows from it, links to other
//	             components, callbacks, pools, and restore-time scratch; the
//	             restore target already has its own.
//
// A new field fails this test until it is listed, which is the moment to
// decide which it is and, if it is state, to add it to the walk.
var snapshotFieldClass = map[string]string{
	"Level.cfg":       "wiring",
	"Level.q":         "wiring",
	"Level.lower":     "wiring",
	"Level.lines":     "serialized", // the valid ones, in slot (so recency) order; an empty way is its zero bit in the bitmap
	"Level.wb":        "wiring",
	"Level.wmask":     "wiring",
	"Level.assoc":     "wiring",
	"Level.nsets":     "wiring",
	"Level.lineShift": "wiring",
	"Level.setShift":  "wiring",
	"Level.mshrs":     "serialized",
	"Level.snapID":    "wiring", // written, but as a guard: loading compares it and never assigns it
	"Level.pendingWB": "serialized",
	"Level.wbretry":   "wiring",
	"Level.freeMSHRs": "wiring",
	"Level.MissBegin": "wiring",
	"Level.MissEnd":   "wiring",
	"Level.Wake":      "wiring",
	"Level.Stats":     "serialized",

	"mshr.addr":    "serialized",
	"mshr.waiters": "serialized",
	"mshr.dirty":   "serialized",
	"mshr.issued":  "serialized",
	"mshr.l":       "wiring",
	"mshr.meta":    "serialized",

	"wbEntry.addr": "serialized",
	"wbEntry.meta": "serialized",

	"Meta.Thread": "serialized",
	"Meta.State":  "serialized",

	"ThreadState.ROBOccupancy": "serialized",
	"ThreadState.IQOccupancy":  "serialized",

	"Stats.Accesses":   "serialized",
	"Stats.Misses":     "serialized",
	"Stats.Merged":     "serialized",
	"Stats.Writebacks": "serialized",
	"Stats.MSHRFull":   "serialized",

	"MemBackend.q":           "wiring",
	"MemBackend.ctrl":        "wiring",
	"MemBackend.nextID":      "serialized",
	"MemBackend.pending":     "serialized",
	"MemBackend.pendingCap":  "wiring",
	"MemBackend.freeReqs":    "wiring",
	"MemBackend.restoreReqs": "wiring", // the memo ResolveRef keeps while a restore is under way

	// An in-flight request has no section of its own: it is in the format
	// wherever something refers to it, as its SnapRef's arguments.
	"pooledReq.b":    "wiring",
	"pooledReq.req":  "serialized",
	"pooledReq.done": "serialized",
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Level{}), reflect.TypeOf(mshr{}), reflect.TypeOf(wbEntry{}),
		reflect.TypeOf(Meta{}), reflect.TypeOf(mem.ThreadState{}), reflect.TypeOf(Stats{}),
		reflect.TypeOf(MemBackend{}), reflect.TypeOf(pooledReq{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			switch snapshotFieldClass[name] {
			case "serialized", "wiring":
			case "":
				t.Errorf("%s is not classified: list it as serialized or wiring, and cover it in snapshot.go", name)
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

// The MSHR file holds one miss a line, and a frame lists it by ascending line
// address. A frame that names a line twice is corrupt: restored as written it
// would leave two fills racing for one line (as a map it silently kept the
// second entry and dropped the first one's waiters).
func TestMSHRSectionRejectsRepeatedLine(t *testing.T) {
	cfg := Config{Name: "L", SizeBytes: 12 * 64, Assoc: 3, LineBytes: 64, Latency: 1, MSHRs: 4}
	var q event.Queue
	l, err := New(&q, cfg, NewFixedLatency(&q, 10))
	if err != nil {
		t.Fatal(err)
	}
	const first, second = 0x1000, 0x2000 // two-byte varints both
	l.Store(0, second, Meta{})
	l.Store(0, first, Meta{})
	if l.OutstandingMisses() != 2 {
		t.Fatalf("%d misses in flight, want 2", l.OutstandingMisses())
	}
	frame := levelFrame(t, l)
	payload := frame[5 : len(frame)-4]
	// reseal frames the payload again with the last occurrence of one varint
	// replaced by another of the same length.
	reseal := func(old, new uint64) []byte {
		o, n := binary.AppendUvarint(nil, old), binary.AppendUvarint(nil, new)
		at := bytes.LastIndex(payload, o)
		if at < 0 || len(o) != len(n) {
			t.Fatalf("line address %#x is not in the section as a %d-byte varint", old, len(n))
		}
		w := &snap.Writer{}
		for i, b := range payload {
			if i >= at && i < at+len(n) {
				b = n[i-at]
			}
			w.U8(b)
		}
		return w.Frame("LVLT", 1)
	}
	if err := loadLevel(l, reseal(second, second)); err != nil {
		t.Fatalf("the section as saved: %v", err)
	}
	if l.mshrFor(first) == nil || l.mshrFor(second) == nil || !l.mshrFor(second).dirty {
		t.Fatal("the two saved misses did not come back")
	}
	for name, f := range map[string][]byte{
		"one line twice":        reseal(second, first),
		"descending line order": reseal(second, first-64),
	} {
		if err := loadLevel(l, f); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: got %v, want %v", name, err, snap.ErrCorrupt)
		}
	}
}
