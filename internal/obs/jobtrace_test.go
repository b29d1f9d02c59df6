package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWriteChromeJobTrace: the combined export is valid Chrome trace JSON
// containing both clock domains — the job's phases and its flight's run on
// two tracks of the wall pid, cycle-domain lifecycle slices on the cycle pids
// — every non-metadata event stamped with the job id, the cycle events
// offset to the simulation's wall start, phases that share an instant
// sharing a timestamp, and an open phase drawn to now and marked open.
func TestWriteChromeJobTrace(t *testing.T) {
	t0 := time.Now().Add(-time.Second) // every phase ends before the export reads the clock
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := NewTracer()
	tr.Emit(Event{Kind: KEnqueue, At: 1, End: 1, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})
	tr.Emit(Event{Kind: KQueued, At: 1, End: 20, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})
	tr.Emit(Event{Kind: KIssue, At: 20, End: 20, ReqID: 7, Addr: 0x40, Thread: 0, Read: true, Outcome: "hit"})
	tr.Emit(Event{Kind: KDone, At: 90, End: 90, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})

	var buf bytes.Buffer
	err := WriteChromeJobTrace(&buf, JobTrace{
		JobID: "j-5",
		Phases: []Phase{
			{Name: "job", Start: at(2), Args: map[string]string{"kind": "sim"}},
			{Name: "admission", Start: at(2), End: at(3), Args: map[string]string{"outcome": "deduped"}},
		},
		// A deduped job's run began before the job was submitted.
		FlightID:  "f-1",
		Run:       []Phase{{Name: "run", Start: at(0), End: at(3)}},
		SimEvents: tr.Events(), SimStart: at(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Ts    uint64         `json:"ts"`
			Dur   uint64         `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	type slice struct {
		tid     int
		ts, end uint64
		open    bool
	}
	wall := map[string]slice{}
	var cycle int
	for _, ev := range out.TraceEvents {
		if ev.Phase == "M" {
			if ev.Pid == wallPid && ev.Name == "process_name" && ev.Args["name"] != "smtdramd (wall clock, µs)" {
				t.Fatalf("wall process named %v", ev.Args["name"])
			}
			continue
		}
		if ev.Args["job"] != "j-5" {
			t.Fatalf("event %q missing job correlation arg: %v", ev.Name, ev.Args)
		}
		switch {
		case ev.Pid == wallPid:
			wall[ev.Name] = slice{tid: ev.Tid, ts: ev.Ts, end: ev.Ts + ev.Dur, open: ev.Args["open"] == true}
		case ev.Pid >= cyclePidBase:
			cycle++
			if ev.Ts < 1000 {
				t.Fatalf("cycle event at ts=%d precedes the sim start offset 1000", ev.Ts)
			}
		default:
			t.Fatalf("event %q on unexpected pid %d", ev.Name, ev.Pid)
		}
	}
	if len(wall) != 3 || cycle == 0 {
		t.Fatalf("export has wall slices %v and %d cycle events, want job, admission, run and both domains", wall, cycle)
	}
	job, adm, run := wall["job"], wall["admission"], wall["run"]
	if run.ts != 0 || job.ts != 2000 || adm.end != 3000 || run.end != adm.end {
		t.Fatalf("timestamps are not µs since the earliest phase: run %+v job %+v admission %+v", run, job, adm)
	}
	if job.tid == run.tid || job.tid != adm.tid {
		t.Fatalf("job and flight share a track or the job's phases do not: job %d admission %d run %d", job.tid, adm.tid, run.tid)
	}
	if !job.open || adm.open || run.open || job.end < adm.end {
		t.Fatalf("open flags job/admission/run = %v/%v/%v (job drawn to %d), want only the job open, drawn to now",
			job.open, adm.open, run.open, job.end)
	}
}

// TestWriteChromeSpansValid: a job with wall-clock phases only — no flight
// run, no cycle-domain trace — still exports as valid Chrome trace JSON under
// the wall-clock process.
func TestWriteChromeSpansValid(t *testing.T) {
	t0 := time.Now().Add(-time.Second)
	var buf bytes.Buffer
	err := WriteChromeJobTrace(&buf, JobTrace{
		JobID:  "j-1",
		Phases: []Phase{{Name: "job", Start: t0, End: t0.Add(time.Millisecond)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"traceEvents"`) || !strings.Contains(s, "wall clock") {
		t.Fatalf("Chrome span export missing expected structure: %s", s)
	}
	var any map[string]any
	if err := json.Unmarshal(buf.Bytes(), &any); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}
