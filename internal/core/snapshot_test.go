package core

import (
	"reflect"
	"testing"

	"smtdram/internal/obs"
)

// Every field of the assembled machine is one of:
//
//	serialized — walked by walk (snapshot.go): a component through its own
//	             Snap, a register directly;
//	derived    — rebuilt from serialized state;
//	wiring     — configuration and plumbing the restore target already has;
//	fault-only — set only under a fault plan, which CheckpointSupported
//	             refuses.
//
// A new field fails this test until it is listed, which is the moment to
// decide which it is and, if it is state, to add it to the walk.
var snapshotFieldClass = map[string]string{
	"Simulator.cfg":  "wiring",
	"Simulator.q":    "serialized",
	"Simulator.cpu":  "serialized",
	"Simulator.ctrl": "serialized",
	"Simulator.l1i":  "serialized",
	"Simulator.l1d":  "serialized",
	"Simulator.l2":   "serialized",
	"Simulator.l3":   "serialized",
	"Simulator.mb":   "serialized",
	"Simulator.gens": "serialized",
	"Simulator.obs":  "wiring", // nil: an attached observer is refused too
	"Simulator.fsn":  "fault-only",
	"Simulator.skip": "serialized",
	"Simulator.at":   "serialized", // the watchdog's registers are derived from it (clock.go)

	"SkipStats.Skipped":  "serialized",
	"SkipStats.Segments": "serialized",
	"SkipStats.Longest":  "serialized",
	"SkipStats.Wall":     "derived", // the run's last cycle, set when it closes out
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Simulator{}), reflect.TypeOf(obs.SkipStats{})} {
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
