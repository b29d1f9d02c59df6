package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the wall-clock half of the tracing story. The Tracer in
// trace.go records the *simulated* clock domain — request lifecycles in
// cycles, deterministic, single-threaded. The Spanner records the *serving*
// clock domain — what the daemon spends real time on per job: admission,
// queue wait, warmup, simulation, response. Both export Chrome trace_event
// JSON, so one Perfetto file can show a job's wall-clock spans next to its
// simulation's cycle-domain lifecycle, correlated by a job-id attribute
// (WriteChromeJobTrace).
//
// Unlike the rest of the package, the Spanner is safe for concurrent use:
// spans are started, annotated, and ended from HTTP handlers, pool workers,
// and the run loop at once. It is still nil-safe in the package's style — a
// nil *Spanner or nil *Span turns every operation into a no-op, so span hooks
// cost instrumented code one pointer check when tracing is off.

// SpanID identifies one span within a Spanner. 0 is "no span".
type SpanID uint64

// Attr is one key=value annotation on a span.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// A builds an Attr.
func A(key, val string) Attr { return Attr{Key: key, Val: val} }

// Span is one live wall-clock span. Mutations go through methods, which
// lock the owning Spanner; the exported snapshot form is SpanRecord.
type Span struct {
	sp     *Spanner
	id     SpanID
	root   SpanID // the top of this span's tree (its own id for roots)
	parent SpanID
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
}

// SpanRecord is an immutable snapshot of one span.
type SpanRecord struct {
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"`
	Root   SpanID    `json:"root"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	// End is zero while the span is still open.
	End   time.Time `json:"end,omitempty"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Open reports whether the span had not ended when the snapshot was taken.
func (r SpanRecord) Open() bool { return r.End.IsZero() }

// Duration is End-Start for closed spans; open spans are measured to now.
func (r SpanRecord) Duration(now time.Time) time.Duration {
	if r.Open() {
		return now.Sub(r.Start)
	}
	return r.End.Sub(r.Start)
}

// Attr returns the value of the named attribute ("" when absent).
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Spanner collects wall-clock spans with bounded retention. All methods are
// safe for concurrent use and nil-safe.
type Spanner struct {
	mu      sync.Mutex
	base    time.Time
	next    SpanID
	spans   []*Span
	cap     int
	dropped uint64
}

// NewSpanner builds a Spanner retaining up to capacity spans (<=0 selects
// 8192). Past capacity, the oldest *ended* spans are dropped, down to three
// quarters of it; open spans are never dropped.
func NewSpanner(capacity int) *Spanner {
	if capacity <= 0 {
		capacity = 8192
	}
	return &Spanner{base: time.Now(), cap: capacity}
}

func (sp *Spanner) lock()   { sp.mu.Lock() }
func (sp *Spanner) unlock() { sp.mu.Unlock() }

// Base is the spanner's epoch: Chrome exports report timestamps in
// microseconds since it.
func (sp *Spanner) Base() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return sp.base
}

// Dropped reports how many ended spans retention has discarded.
func (sp *Spanner) Dropped() uint64 {
	if sp == nil {
		return 0
	}
	sp.lock()
	defer sp.unlock()
	return sp.dropped
}

// Start opens a root span.
func (sp *Spanner) Start(name string, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	sp.lock()
	defer sp.unlock()
	sp.next++
	s := &Span{sp: sp, id: sp.next, root: sp.next, name: name, start: time.Now(), attrs: attrs}
	sp.add(s)
	return s
}

// Child opens a span nested under s (nil-safe: a nil parent yields nil).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	sp := s.sp
	sp.lock()
	defer sp.unlock()
	sp.next++
	c := &Span{sp: sp, id: sp.next, root: s.root, parent: s.id, name: name, start: time.Now(), attrs: attrs}
	sp.add(c)
	return c
}

// add appends under the lock. Past cap it drops the oldest ended spans, down
// to three quarters of cap, in one order-keeping pass; while there are ended
// spans to drop, that is one pass per cap/4 spans added, so eviction is
// amortized O(1) a span. Open spans stay even when that leaves the buffer
// over cap: losing a live span would be worse.
func (sp *Spanner) add(s *Span) {
	sp.spans = append(sp.spans, s)
	if len(sp.spans) <= sp.cap {
		return
	}
	excess := len(sp.spans) - sp.cap*3/4
	kept := sp.spans[:0]
	for _, old := range sp.spans {
		if excess > 0 && !old.end.IsZero() {
			excess--
			sp.dropped++
			continue
		}
		kept = append(kept, old)
	}
	clear(sp.spans[len(kept):])
	sp.spans = kept
}

// SetAttr sets (or replaces) an attribute on the span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.sp.lock()
	defer s.sp.unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// End closes the span at now. Ending an ended span is a no-op, so defer-style
// cleanup can race a happy-path End safely.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.sp.lock()
	defer s.sp.unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
}

// Len reports how many spans the buffer currently retains.
func (sp *Spanner) Len() int {
	if sp == nil {
		return 0
	}
	sp.lock()
	defer sp.unlock()
	return len(sp.spans)
}

// Snapshot copies every retained span, in start order.
func (sp *Spanner) Snapshot() []SpanRecord {
	if sp == nil {
		return nil
	}
	sp.lock()
	defer sp.unlock()
	out := make([]SpanRecord, len(sp.spans))
	for i, s := range sp.spans {
		out[i] = SpanRecord{
			ID: s.id, Parent: s.parent, Root: s.root, Name: s.name,
			Start: s.start, End: s.end,
			Attrs: append([]Attr(nil), s.attrs...),
		}
	}
	return out
}

// FilterSpans returns the spans for which pred holds on the span itself or on
// any ancestor — a matching span brings its whole subtree. spans must be in
// start order (parents before children), which Snapshot guarantees.
func FilterSpans(spans []SpanRecord, pred func(SpanRecord) bool) []SpanRecord {
	matched := make(map[SpanID]bool, len(spans))
	var out []SpanRecord
	for _, s := range spans {
		if pred(s) || matched[s.Parent] {
			matched[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// wallPid is the Chrome-export process id hosting every wall-clock span
// track; cycle-domain lanes start at cyclePidBase + channel so the two
// domains never collide.
const (
	wallPid      = 1
	cyclePidBase = 100
)

// chromeSpanEvents renders spans as Chrome trace events: one process for the
// wall-clock domain, one track (tid) per span tree, so concurrent jobs render
// as parallel tracks and nested spans stack within their job's track. Open
// spans are drawn to now.
func chromeSpanEvents(spans []SpanRecord, base time.Time) []chromeEvent {
	now := time.Now()
	out := []chromeEvent{{
		Name: "process_name", Phase: "M", Pid: wallPid,
		Args: map[string]any{"name": "smtdramd (wall clock, µs)"},
	}}
	named := map[SpanID]bool{}
	for _, s := range spans {
		tid := int(s.Root)
		if !named[s.Root] {
			named[s.Root] = true
			track := fmt.Sprintf("trace %d", s.Root)
			for _, r := range spans {
				if r.ID == s.Root {
					if job := r.Attr("job"); job != "" {
						track = job
					} else {
						track = fmt.Sprintf("%s %d", r.Name, r.Root)
					}
					break
				}
			}
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", Pid: wallPid, Tid: tid,
				Args: map[string]any{"name": track},
			})
		}
		args := map[string]any{"span": uint64(s.ID)}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		dur := uint64(s.Duration(now).Microseconds())
		if dur == 0 {
			dur = 1 // keep zero-length phases visible on the timeline
		}
		if s.Open() {
			args["open"] = true
		}
		out = append(out, chromeEvent{
			Name: s.Name, Cat: "wall", Phase: "X",
			Ts: uint64(s.Start.Sub(base).Microseconds()), Dur: dur,
			Pid: wallPid, Tid: tid, Args: args,
		})
	}
	return out
}

// WriteChromeSpans exports wall-clock spans alone as Chrome trace_event JSON
// (the daemon-wide /debug/trace payload).
func WriteChromeSpans(w io.Writer, spans []SpanRecord, base time.Time) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: chromeSpanEvents(spans, base)}
	return json.NewEncoder(w).Encode(&out)
}

// JobTrace bundles one served job's two clock domains for a single Perfetto
// file: the daemon's wall-clock spans, and (when the job was traced) the
// simulation's cycle-domain request lifecycle, anchored so cycle 0 lands at
// the wall-clock instant the run started.
type JobTrace struct {
	// JobID correlates the two domains: it is stamped into the args of every
	// exported event.
	JobID string
	// Spans are the job's wall-clock spans; Base is their epoch.
	Spans []SpanRecord
	Base  time.Time
	// SimEvents is the cycle-domain lifecycle trace (nil when the job was not
	// submitted with tracing). SimStart is the wall-clock instant of cycle 0;
	// the export maps 1 cycle → 1 µs from there, so the cycle domain reads in
	// cycles while sitting at the right spot on the wall timeline.
	SimEvents []Event
	SimStart  time.Time
}

// WriteChromeJobTrace writes the combined two-domain trace as Chrome
// trace_event JSON.
func WriteChromeJobTrace(w io.Writer, t JobTrace) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: chromeSpanEvents(t.Spans, t.Base)}
	if len(t.SimEvents) > 0 {
		offset := uint64(0)
		if !t.SimStart.IsZero() && t.SimStart.After(t.Base) {
			offset = uint64(t.SimStart.Sub(t.Base).Microseconds())
		}
		appendLifecycleEvents(&out.TraceEvents, t.SimEvents, cyclePidBase, offset,
			fmt.Sprintf("job %s · ", t.JobID), map[string]any{"job": t.JobID})
	}
	for i := range out.TraceEvents {
		if out.TraceEvents[i].Phase == "M" {
			continue
		}
		if out.TraceEvents[i].Args == nil {
			out.TraceEvents[i].Args = map[string]any{}
		}
		out.TraceEvents[i].Args["job"] = t.JobID
	}
	return json.NewEncoder(w).Encode(&out)
}
