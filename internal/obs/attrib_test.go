package obs

import (
	"reflect"
	"testing"
)

// traceBuilder writes a one-channel lifecycle trace by hand, in emission
// order, the way memctrl emits it.
type traceBuilder []Event

func (b *traceBuilder) enqueue(id, at uint64, bank, thread int, read bool) {
	*b = append(*b, Event{Kind: KEnqueue, At: at, End: at, ReqID: id, Bank: bank, Thread: thread, Read: read})
}

// issue dispatches id at cycle at: an activate over [at, act) when act > at,
// the column access up to casEnd, the burst over [dataStart, done).
func (b *traceBuilder) issue(id, at, act, casEnd, dataStart, done uint64) {
	*b = append(*b, Event{Kind: KIssue, At: at, End: at, ReqID: id})
	casStart := at
	if act > at {
		*b = append(*b, Event{Kind: KActivate, At: at, End: act, ReqID: id})
		casStart = act
	}
	*b = append(*b,
		Event{Kind: KCAS, At: casStart, End: casEnd, ReqID: id},
		Event{Kind: KData, At: dataStart, End: done, ReqID: id})
}

func (b *traceBuilder) done(id, at uint64) {
	*b = append(*b, Event{Kind: KDone, At: at, End: at, ReqID: id})
}

// TestAttributeTwoBanks checks Attribute against two hand-built two-bank
// traces whose answers are worked out cycle by cycle in the comments.
func TestAttributeTwoBanks(t *testing.T) {
	// Window 1, open page. r1 holds the window over [0,14). r2 (bank 1)
	// waits for the window from 2; r3 (bank 0) waits for r1, older, on its
	// own bank and then overtakes r2: at 14 both banks are free (two
	// choices) and the younger r3 goes, so r2 waits for the window until r3
	// is done at 24 — 22 cycles, all WindowFull. r4 waits for r2's window
	// over [30,48), then two cycles with its bank free and the window empty.
	// The write w5 is dispatched with no read queued; r6 never is.
	var a traceBuilder
	a.enqueue(1, 0, 0, 0, true)
	a.issue(1, 0, 0, 10, 10, 14)
	a.enqueue(2, 2, 1, 1, true)
	a.enqueue(3, 4, 0, 0, true)
	a.done(1, 14)
	a.issue(3, 14, 0, 20, 20, 24)
	a.done(3, 24)
	a.issue(2, 24, 34, 44, 44, 48)
	a.enqueue(4, 30, 0, 1, true)
	a.done(2, 48)
	a.issue(4, 50, 0, 56, 56, 60)
	a.enqueue(5, 52, 1, -1, false)
	a.done(4, 60)
	a.issue(5, 60, 0, 70, 70, 74)
	a.enqueue(6, 70, 0, 0, true)
	a.done(5, 74)
	a = append(a, Event{Kind: KCancel, At: 80, End: 80, ReqID: 6})

	// Window 2, close page: a bank stays busy 5 cycles past its last beat.
	// r3 (bank 1) goes at once but its burst waits a cycle for r1's. r2 and
	// the younger r4 wait on bank 0 for r1, until 19; r4, picked over r2 at
	// 19, holds the bank until 34: r2 waits 17 cycles behind an older
	// request and 15 behind a younger one.
	var b traceBuilder
	b.enqueue(1, 0, 0, 0, true)
	b.issue(1, 0, 0, 10, 10, 14)
	b.enqueue(2, 2, 0, 0, true)
	b.enqueue(3, 3, 1, 1, true)
	b.issue(3, 3, 8, 13, 14, 18)
	b.enqueue(4, 5, 0, 1, true)
	b.done(1, 14)
	b.done(3, 18)
	b.issue(4, 19, 0, 25, 25, 29)
	b.done(4, 29)
	b.issue(2, 34, 0, 44, 44, 48)
	b.done(2, 48)

	cases := []struct {
		name     string
		events   []Event
		m        Machine
		want     map[uint64]LatencySplit
		unsplit  int
		choices  []uint64
		ready    uint64
		oldest   uint64
		byThread []ThreadReads
	}{
		{
			name: "window 1, open page", events: a, m: Machine{Window: 1},
			want: map[uint64]LatencySplit{
				1: {Prep: 10, Transfer: 4},
				2: {WindowFull: 22, Prep: 20, Transfer: 4},
				3: {Older: 10, Prep: 6, Transfer: 4},
				4: {WindowFull: 18, BankFree: 2, Prep: 6, Transfer: 4},
			},
			unsplit: 1, choices: []uint64{0, 4, 1}, ready: 4, oldest: 3,
			byThread: []ThreadReads{
				{Reads: 2, Sum: LatencySplit{Older: 10, Prep: 16, Transfer: 8}},
				{Reads: 2, Sum: LatencySplit{WindowFull: 40, BankFree: 2, Prep: 26, Transfer: 8}},
			},
		},
		{
			name: "window 2, close page", events: b, m: Machine{Window: 2, BankHold: 5},
			want: map[uint64]LatencySplit{
				1: {Prep: 10, Transfer: 4},
				2: {Older: 17, Overtaken: 15, Prep: 10, Transfer: 4},
				3: {Prep: 10, BusWait: 1, Transfer: 4},
				4: {Older: 14, Prep: 6, Transfer: 4},
			},
			choices: []uint64{0, 3, 1}, ready: 4, oldest: 3,
			byThread: []ThreadReads{
				{Reads: 2, Sum: LatencySplit{Older: 17, Overtaken: 15, Prep: 20, Transfer: 8}},
				{Reads: 2, Sum: LatencySplit{Older: 14, Prep: 16, BusWait: 1, Transfer: 8}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Attribute(tc.events, tc.m)
			if len(got.Reads) != len(tc.want) {
				t.Fatalf("split %d reads, want %d", len(got.Reads), len(tc.want))
			}
			for _, r := range got.Reads {
				if r.LatencySplit != tc.want[r.ReqID] {
					t.Errorf("read %d: %+v, want %+v", r.ReqID, r.LatencySplit, tc.want[r.ReqID])
				}
				if r.Total() != r.Done-r.Enqueue {
					t.Errorf("read %d: parts sum to %d, latency %d", r.ReqID, r.Total(), r.Done-r.Enqueue)
				}
			}
			if got.Unsplit != tc.unsplit {
				t.Errorf("unsplit %d, want %d", got.Unsplit, tc.unsplit)
			}
			if !reflect.DeepEqual(got.Choices, tc.choices) || got.ReadyReads != tc.ready || got.OldestPicked != tc.oldest {
				t.Errorf("choices %v, %d/%d oldest ready read picked; want %v, %d/%d",
					got.Choices, got.OldestPicked, got.ReadyReads, tc.choices, tc.oldest, tc.ready)
			}
			if bt := got.ByThread(); !reflect.DeepEqual(bt, tc.byThread) {
				t.Errorf("by thread %+v, want %+v", bt, tc.byThread)
			}
		})
	}
}
