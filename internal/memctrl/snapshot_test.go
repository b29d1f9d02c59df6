package memctrl

import (
	"errors"
	"reflect"
	"testing"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

// Every field of the controller's state structs is one of:
//
//	serialized — walked by Snap (snapshot.go), so it is in the format (an
//	             entry in flight as the arguments of its SnapRef);
//	derived    — rebuilt by loading from serialized state;
//	wiring     — configuration, links to other components, pre-bound events
//	             and pools; the restore target already has its own;
//	fault-only — leaves its initial value only under a fault injector, and a
//	             controller with one attached refuses to snapshot.
//
// A new field fails this test until it is listed, which is the moment to
// decide which it is and, if it is state, to add it to the walk.
var snapshotFieldClass = map[string]string{
	"Controller.cfg":         "wiring",
	"Controller.q":           "wiring",
	"Controller.channels":    "wiring", // the slice; each channel's state is listed below
	"Controller.seq":         "serialized",
	"Controller.inj":         "wiring",
	"Controller.lc":          "wiring",
	"Controller.freeEntries": "wiring",
	"Controller.outstanding": "serialized",
	"Controller.threadsBusy": "serialized",
	"Controller.totalOut":    "serialized",
	"Controller.lastChange":  "serialized",
	"Controller.Stats":       "serialized",

	"channelCtl.dev":        "serialized", // dram.Channel's own walk
	"channelCtl.queue":      "serialized",
	"channelCtl.inFlight":   "serialized",
	"channelCtl.retryArmed": "serialized",
	"channelCtl.retry":      "wiring",

	"entry.req":          "serialized", // as its request's reference
	"entry.loc":          "derived",    // re-decoded from the request's address through the mapper
	"entry.seq":          "serialized",
	"entry.queuedBehind": "serialized",
	"entry.attempt":      "fault-only",
	"entry.backoff":      "fault-only",
	"entry.ctrl":         "wiring",
	"entry.cc":           "derived", // nil while queued; in flight, the channel its SnapRef names

	"Stats.Reads":                "serialized",
	"Stats.Writes":               "serialized",
	"Stats.Rejected":             "serialized",
	"Stats.ReadLatencySum":       "serialized",
	"Stats.ThreadReads":          "serialized",
	"Stats.ThreadReadLatencySum": "serialized",
	"Stats.OutstandingHist":      "serialized",
	"Stats.ThreadSpreadHist":     "serialized",
	"Stats.Retries":              "fault-only",
	"Stats.RetryGiveUps":         "fault-only",
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Controller{}), reflect.TypeOf(channelCtl{}), reflect.TypeOf(entry{}), reflect.TypeOf(Stats{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			switch snapshotFieldClass[name] {
			case "serialized", "derived", "wiring", "fault-only":
			case "":
				t.Errorf("%s is not classified: list it as serialized, derived, wiring or fault-only, and cover it in snapshot.go", name)
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

// The frame has no name or slot for state only a fault run can hold — a
// machine with an injector refuses to snapshot — so a sealed frame that claims
// some is corrupt, not restorable: kind 12 was the planned-failover handler
// (it resolved to an event bound to no controller, which panicked on firing),
// and a five-arg entry carried a retry attempt and a backoff flag.
func TestResolveRefRejectsFaultOnlyShapes(t *testing.T) {
	var q event.Queue
	c := newCtl(t, &q, FCFS, 1)
	req := snap.Ref{Kind: snap.KMemBackendReq}
	resolve := func(*snap.Ref, uint8) (any, error) { return &mem.Request{}, nil }
	if _, err := c.ResolveRef(&snap.Ref{Kind: snap.KMemEntry, Args: []uint64{0, 1, 0}, Inner: &req}, resolve); err != nil {
		t.Fatalf("three-arg entry: %v", err)
	}
	for name, ref := range map[string]*snap.Ref{
		"retired failover kind": {Kind: 12},
		"five-arg entry":        {Kind: snap.KMemEntry, Args: []uint64{0, 1, 0, 0, 0}, Inner: &req},
	} {
		if obj, err := c.ResolveRef(ref, resolve); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: ResolveRef = (%T, %v), want an error wrapping snap.ErrCorrupt", name, obj, err)
		}
	}
}
