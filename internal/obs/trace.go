package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Tracer collects request-lifecycle events in emission order. It implements
// Sink. The simulator is single-threaded and deterministic, so two runs with
// the same seed produce byte-identical exports.
type Tracer struct {
	events []Event
	open   map[uint64]int // ReqID → index of last non-terminal milestone
}

// NewTracer builds an empty tracer.
func NewTracer() *Tracer { return &Tracer{open: map[uint64]int{}} }

// Emit implements Sink.
func (t *Tracer) Emit(e Event) {
	t.events = append(t.events, e)
	switch e.Kind {
	case KEnqueue:
		t.open[e.ReqID] = len(t.events) - 1
	case KDone, KCancel:
		delete(t.open, e.ReqID)
	}
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int { return len(t.events) }

// Events returns the recorded events (shared slice; do not mutate).
func (t *Tracer) Events() []Event { return t.events }

// Finish emits a KCancel terminal for every request still in flight at the
// end of the run, so every traced request reaches a terminal state. Cancels
// are emitted in enqueue order (deterministic).
func (t *Tracer) Finish(now uint64) {
	if len(t.open) == 0 {
		return
	}
	idxs := make([]int, 0, len(t.open))
	for _, i := range t.open {
		idxs = append(idxs, i)
	}
	// insertion sort: the open set is small (bounded by queue depths)
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	for _, i := range idxs {
		e := t.events[i]
		t.Emit(Event{
			Kind: KCancel, At: now, End: now, ReqID: e.ReqID, Addr: e.Addr,
			Thread: e.Thread, Channel: e.Channel, Chip: e.Chip, Bank: e.Bank,
			Row: e.Row, Read: e.Read,
		})
	}
}

// WriteJSONL exports the trace, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.events) }

// WriteChrome exports the trace as Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error { return WriteChrome(w, t.events) }

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	Kind    string `json:"kind"`
	At      uint64 `json:"at"`
	End     uint64 `json:"end,omitempty"`
	ReqID   uint64 `json:"req"`
	Addr    string `json:"addr"`
	Thread  int    `json:"thread"`
	Channel int    `json:"channel"`
	Chip    int    `json:"chip"`
	Bank    int    `json:"bank"`
	Row     uint64 `json:"row"`
	Read    bool   `json:"read"`
	Outcome string `json:"outcome,omitempty"`
	Queue   int    `json:"queue,omitempty"`
}

// WriteJSONL writes events as JSON lines, in order.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonEvent{
			Kind: e.Kind.String(), At: e.At, ReqID: e.ReqID,
			Addr: fmt.Sprintf("0x%x", e.Addr), Thread: e.Thread,
			Channel: e.Channel, Chip: e.Chip, Bank: e.Bank, Row: e.Row,
			Read: e.Read, Outcome: e.Outcome, Queue: e.Queue,
		}
		if e.End != e.At {
			je.End = e.End
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one trace_event record. Timestamps are in microseconds per
// the format; we map 1 simulated cycle → 1 µs so cycle numbers read directly
// off the Perfetto timeline.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes events as Chrome trace_event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Each DRAM channel becomes a
// process; each hardware thread a track within it (writebacks on track 0);
// lifecycle phases render as complete slices and transitions as instants.
func WriteChrome(w io.Writer, events []Event) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	appendLifecycleEvents(&out.TraceEvents, events, 0, 0, "", nil)
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// appendLifecycleEvents renders cycle-domain lifecycle events into out.
// pidBase offsets every channel's process id and procPrefix its process name
// (so a merged two-domain export keeps the cycle lanes distinct from the
// wall-clock lanes); tsOffset shifts every timestamp (1 cycle → 1 µs), which
// anchors cycle 0 at a wall-clock instant in merged traces; extraArgs is
// stamped into every event's args (the job-id correlation bridge).
func appendLifecycleEvents(out *[]chromeEvent, events []Event, pidBase int, tsOffset uint64, procPrefix string, extraArgs map[string]any) {
	type lane struct{ pid, tid int }
	seen := map[lane]bool{}
	for _, e := range events {
		pid, tid := pidBase+e.Channel, e.Thread+1
		l := lane{pid, tid}
		if !seen[l] {
			seen[l] = true
			*out = append(*out,
				chromeEvent{Name: "process_name", Phase: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": fmt.Sprintf("%schannel %d (cycles)", procPrefix, e.Channel)}},
				chromeEvent{Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": laneName(e.Thread)}},
			)
		}
		args := map[string]any{
			"req":   e.ReqID,
			"addr":  fmt.Sprintf("0x%x", e.Addr),
			"bank":  fmt.Sprintf("%d/%d", e.Chip, e.Bank),
			"row":   e.Row,
			"read":  e.Read,
			"cycle": e.At,
		}
		if e.Outcome != "" {
			args["outcome"] = e.Outcome
		}
		for k, v := range extraArgs {
			args[k] = v
		}
		ce := chromeEvent{
			Name: e.Kind.String(), Cat: reqCat(e.Read),
			Ts: tsOffset + e.At, Pid: pid, Tid: tid, Args: args,
		}
		if e.End > e.At {
			ce.Phase = "X"
			ce.Dur = e.End - e.At
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		*out = append(*out, ce)
	}
}

func laneName(thread int) string {
	if thread < 0 {
		return "writeback"
	}
	return fmt.Sprintf("thread %d", thread)
}

func reqCat(read bool) string {
	if read {
		return "read"
	}
	return "write"
}

// GroupByRequest splits a trace into per-request event groups, ordered by
// each request's first appearance.
func GroupByRequest(events []Event) [][]Event {
	idx := map[uint64]int{}
	var groups [][]Event
	for _, e := range events {
		i, ok := idx[e.ReqID]
		if !ok {
			i = len(groups)
			idx[e.ReqID] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}
	return groups
}
