package dram

import (
	"reflect"
	"testing"
)

// Every field of the device model's state structs is one of:
//
//	serialized — walked by Snap (snapshot.go), so it is in the format;
//	wiring     — configuration the restore target was built with.
//
// A new field fails this test until it is listed, which is the moment to
// decide which it is and, if it is state, to add it to the walk.
var snapshotFieldClass = map[string]string{
	"Channel.p":             "wiring",
	"Channel.banks":         "serialized",
	"Channel.perChip":       "wiring",
	"Channel.busFreeAt":     "serialized",
	"Channel.lastWasWrite":  "serialized",
	"Channel.nextRefreshAt": "serialized",
	"Channel.Stats":         "serialized",

	"bank.openRow": "serialized",
	"bank.readyAt": "serialized",

	"Channel.Stats.Hits":        "serialized",
	"Channel.Stats.Closed":      "serialized",
	"Channel.Stats.Conflicts":   "serialized",
	"Channel.Stats.Reads":       "serialized",
	"Channel.Stats.Writes":      "serialized",
	"Channel.Stats.BusBusy":     "serialized",
	"Channel.Stats.Turnarounds": "serialized",
	"Channel.Stats.Refreshes":   "serialized",
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for prefix, v := range map[string]any{
		"Channel": Channel{}, "bank": bank{}, "Channel.Stats": Channel{}.Stats,
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name := prefix + "." + typ.Field(i).Name
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
