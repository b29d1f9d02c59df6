package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// This file is the wall-clock half of the tracing story. The Tracer in
// trace.go records the *simulated* clock domain — request lifecycles in
// cycles, deterministic, single-threaded. A served job's wall-clock phases —
// admission, queue wait, warmup, simulation, response — are instants the
// daemon keeps on the job itself; WriteChromeJobTrace draws them next to the
// job's cycle-domain lifecycle in one Perfetto file, correlated by a job-id
// argument on every event.

// Phase is one wall-clock phase of a served job as plain values. A zero End
// marks a phase still open: the export draws it to now with an "open" arg.
type Phase struct {
	Name       string
	Start, End time.Time
	Args       map[string]string
}

// JobTrace bundles one served job's two clock domains for a single Perfetto
// file: its wall-clock phases and, when the job was traced, the simulation's
// cycle-domain request lifecycle, anchored so cycle 0 lands at the wall-clock
// instant the run started.
type JobTrace struct {
	// JobID correlates the two domains: it is stamped into the args of every
	// exported event.
	JobID string
	// Phases are the job's own phases, drawn on the job's track. Run holds
	// the phases of the flight it rode, drawn on a track named after FlightID:
	// a deduped job can join a run that began before it was submitted.
	Phases   []Phase
	FlightID string
	Run      []Phase
	// SimEvents is the cycle-domain lifecycle trace (nil when the job was not
	// submitted with tracing). SimStart is the wall-clock instant of cycle 0;
	// the export maps 1 cycle → 1 µs from there, so the cycle domain reads in
	// cycles while sitting at the right spot on the wall timeline.
	SimEvents []Event
	SimStart  time.Time
}

// wallPid is the Chrome-export process id hosting the wall-clock tracks;
// cycle-domain lanes start at cyclePidBase + channel so the two domains never
// collide.
const (
	wallPid      = 1
	cyclePidBase = 100
)

// WriteChromeJobTrace writes the combined two-domain trace as Chrome
// trace_event JSON. Timestamps are microseconds since the earliest phase.
func WriteChromeJobTrace(w io.Writer, t JobTrace) error {
	now := time.Now()
	base := now
	for _, ps := range [][]Phase{t.Phases, t.Run} {
		for _, p := range ps {
			if p.Start.Before(base) {
				base = p.Start
			}
		}
	}
	us := func(at time.Time) uint64 { return uint64(at.Sub(base).Microseconds()) }

	events := []chromeEvent{{
		Name: "process_name", Phase: "M", Pid: wallPid,
		Args: map[string]any{"name": "smtdramd (wall clock, µs)"},
	}}
	track := func(tid int, name string, phases []Phase) {
		if len(phases) == 0 {
			return
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", Pid: wallPid, Tid: tid,
			Args: map[string]any{"name": name},
		})
		for _, p := range phases {
			args := make(map[string]any, len(p.Args)+1)
			for k, v := range p.Args {
				args[k] = v
			}
			end := p.End
			if end.IsZero() {
				end = now
				args["open"] = true
			}
			// Both ends are read off the one epoch, so phases that share an
			// instant share a timestamp.
			ts := us(p.Start)
			dur := us(end) - ts
			if dur == 0 {
				dur = 1 // keep zero-length phases visible on the timeline
			}
			events = append(events, chromeEvent{
				Name: p.Name, Cat: "wall", Phase: "X", Ts: ts, Dur: dur,
				Pid: wallPid, Tid: tid, Args: args,
			})
		}
	}
	track(1, t.JobID, t.Phases)
	track(2, "flight "+t.FlightID, t.Run)
	if len(t.SimEvents) > 0 {
		offset := uint64(0)
		if t.SimStart.After(base) {
			offset = us(t.SimStart)
		}
		appendLifecycleEvents(&events, t.SimEvents, cyclePidBase, offset, fmt.Sprintf("job %s · ", t.JobID))
	}
	for _, e := range events {
		if e.Phase != "M" {
			e.Args["job"] = t.JobID
		}
	}
	return json.NewEncoder(w).Encode(&chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}
