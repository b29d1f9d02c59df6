package event

import (
	"errors"
	"reflect"
	"testing"

	"smtdram/internal/snap"
)

// Every field of the queue's state structs is one of:
//
//	serialized   — walked by Snap (snapshot.go), so it is in the format: the
//	               two tiers as one (cycle, seq)-ordered list of pending events;
//	derived      — rebuilt by loading from serialized state (place re-creates
//	               the ring's buckets, node pool and occupancy as it
//	               re-inserts the events).
//
// A new field fails this test until it is listed, which is the moment to
// decide which it is and to teach snapshot.go about it.
var snapshotFieldClass = map[string]string{
	"Queue.head":    "derived",
	"Queue.tail":    "derived",
	"Queue.node":    "derived",
	"Queue.free":    "derived",
	"Queue.occ":     "derived",
	"Queue.ringN":   "derived",
	"Queue.base":    "serialized",
	"Queue.far":     "serialized",
	"Queue.seq":     "serialized",
	"Queue.fired":   "serialized",
	"Queue.firedAt": "serialized",
	"Queue.past":    "serialized",
	"Queue.maxLen":  "serialized",

	"item.at":  "serialized",
	"item.seq": "serialized",
	"item.h":   "serialized", // as the role byte and the object's reference
	"item.f":   "serialized",

	"node.it":   "serialized", // as the item it holds
	"node.next": "derived",
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Queue{}), reflect.TypeOf(item{}), reflect.TypeOf(node{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			switch snapshotFieldClass[name] {
			case "serialized", "derived":
			case "":
				t.Errorf("%s is not classified: list it as serialized or derived, and cover it in snapshot.go", name)
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

// named is a schedulable object the codec can name: handler i of a test's
// table, in either role.
type named struct {
	id    uint64
	fired *[]uint64
}

func (n *named) OnEvent(uint64)    { *n.fired = append(*n.fired, n.id) }
func (n *named) OnFill(uint64)     { *n.fired = append(*n.fired, 1000+n.id) }
func (n *named) SnapRef() snap.Ref { return snap.Ref{Kind: snap.KMemRetry, Args: []uint64{n.id}} }

// A saved queue restores to the same counters and the same firing order —
// ring, far heap and a schedule-in-the-past alike — and a queue holding an
// event with no SnapRef, which has no name to save, says so.
func TestQueueSnapRoundTrip(t *testing.T) {
	var liveFired, restoredFired []uint64
	var live, restored Queue
	live.RunUntil(50)
	for i, at := range []uint64{60, 55, 55, 5000, 70, 3, 60, 100000} {
		if i == 5 {
			live.RunUntil(57) // the two at 55 fire, so cycle 3 is now in the past
		}
		n := &named{id: uint64(i), fired: &liveFired}
		if i%3 == 2 {
			live.ScheduleFiller(at, n)
		} else {
			live.ScheduleHandler(at, n)
		}
	}

	var w snap.Writer
	if err := live.Snap(snap.Saving(&w), nil); err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(w.Frame("EVQT", 1), "EVQT", 1)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(ref *snap.Ref, role uint8) (any, error) {
		return &named{id: ref.Args[0], fired: &restoredFired}, nil
	}
	if err := restored.Snap(snap.Loading(r), resolve); err != nil {
		t.Fatal(err)
	}
	if r.Done(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if restored.Len() != live.Len() || restored.Fired() != live.Fired() || restored.PastSchedules() != live.PastSchedules() ||
		restored.PastSchedules() != 1 || restored.MaxLen() != live.MaxLen() {
		t.Fatalf("restored counters differ: %d pending, %d fired, %d past, high water %d; live %d, %d, %d, %d",
			restored.Len(), restored.Fired(), restored.PastSchedules(), restored.MaxLen(),
			live.Len(), live.Fired(), live.PastSchedules(), live.MaxLen())
	}
	liveFired = nil
	live.RunUntil(200000)
	restored.RunUntil(200000)
	if len(liveFired) != 6 || !reflect.DeepEqual(restoredFired, liveFired) {
		t.Fatalf("restored queue fired %v, live %v", restoredFired, liveFired)
	}

	live.ScheduleHandler(300000, fnEvent(func(uint64) {}))
	if err := live.Snap(snap.Saving(&snap.Writer{}), nil); !errors.Is(err, snap.ErrUnsupported) {
		t.Fatalf("queue holding an unnamed handler: Snap returned %v, want snap.ErrUnsupported", err)
	}
}
