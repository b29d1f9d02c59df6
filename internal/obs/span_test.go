package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNestingAndAttrs: children record their parent and root, attributes
// set at start and via SetAttr both land in the snapshot, and End freezes the
// record.
func TestSpanNestingAndAttrs(t *testing.T) {
	sp := NewSpanner(16)
	root := sp.Start("job", A("kind", "sim"))
	child := root.Child("admission")
	grand := child.Child("validate", A("step", "1"))
	grand.SetAttr("step", "2")  // replace
	grand.SetAttr("ok", "true") // append
	grand.End()
	child.End()

	recs := sp.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(recs))
	}
	r0, r1, r2 := recs[0], recs[1], recs[2]
	if r0.Parent != 0 || r0.Root != r0.ID || r0.Name != "job" {
		t.Fatalf("root record = %+v", r0)
	}
	if r1.Parent != r0.ID || r1.Root != r0.ID {
		t.Fatalf("child parent/root = %d/%d, want %d/%d", r1.Parent, r1.Root, r0.ID, r0.ID)
	}
	if r2.Parent != r1.ID || r2.Root != r0.ID {
		t.Fatalf("grandchild parent/root = %d/%d", r2.Parent, r2.Root)
	}
	if r0.Attr("kind") != "sim" {
		t.Fatalf("root kind attr = %q", r0.Attr("kind"))
	}
	if r2.Attr("step") != "2" || r2.Attr("ok") != "true" {
		t.Fatalf("grandchild attrs = %v", r2.Attrs)
	}
	if !r0.Open() || r1.Open() || r2.Open() {
		t.Fatalf("open flags = %v/%v/%v, want open/closed/closed", r0.Open(), r1.Open(), r2.Open())
	}
	if d := r1.Duration(time.Now()); d < 0 {
		t.Fatalf("closed span duration = %v", d)
	}
}

// TestSpannerRetention: past capacity the oldest *ended* spans are evicted,
// down to three quarters of it, and counted; open spans survive arbitrary
// pressure, and what is retained stays in start order.
func TestSpannerRetention(t *testing.T) {
	sp := NewSpanner(4)
	open := sp.Start("stays-open")
	for i := 0; i < 10; i++ {
		s := sp.Start("churn")
		s.End()
	}
	// The fifth span overflows: the two oldest ended churn spans go, leaving
	// three. Every second span after that does the same: 8 dropped of 11.
	if got := sp.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := sp.Dropped(); got != 8 {
		t.Fatalf("Dropped = %d, want 8", got)
	}
	recs := sp.Snapshot()
	if recs[0].ID != open.id || !recs[0].Open() {
		t.Fatalf("retention evicted or ended the open span: first record %+v", recs[0])
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("snapshot out of start order: %d after %d", recs[i].ID, recs[i-1].ID)
		}
	}

	// Nothing ended, nothing to drop: the buffer holds every open span.
	sp = NewSpanner(4)
	for i := 0; i < 6; i++ {
		sp.Start("open")
	}
	if sp.Len() != 6 || sp.Dropped() != 0 {
		t.Fatalf("all open: Len = %d, Dropped = %d; want 6, 0", sp.Len(), sp.Dropped())
	}
}

// BenchmarkSpannerFull is the daemon's steady state: a buffer at capacity,
// every new span evicting.
func BenchmarkSpannerFull(b *testing.B) {
	sp := NewSpanner(0)
	for i := 0; i < 8192; i++ {
		sp.Start("fill").End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Start("job").End()
	}
}

// TestFilterSpansSubtree: a predicate match on a root brings every
// descendant, and non-matching trees are excluded entirely.
func TestFilterSpansSubtree(t *testing.T) {
	sp := NewSpanner(0)
	a := sp.Start("job", A("job", "j-1"))
	a.Child("run").Child("warmup")
	b := sp.Start("job", A("job", "j-2"))
	b.Child("run")

	got := FilterSpans(sp.Snapshot(), func(r SpanRecord) bool { return r.Attr("job") == "j-1" })
	if len(got) != 3 {
		t.Fatalf("filter kept %d spans, want 3 (root + 2 descendants)", len(got))
	}
	for _, r := range got {
		if r.Root != a.id {
			t.Fatalf("filtered span %d has root %d, want tree %d only", r.ID, r.Root, a.id)
		}
	}
}

// TestSpanNilSafety: every operation on a nil Spanner/Span is a no-op, the
// contract that lets span hooks run unconditionally when tracing is off.
func TestSpanNilSafety(t *testing.T) {
	var sp *Spanner
	if sp.Start("x") != nil {
		t.Fatalf("nil Spanner.Start returned a span")
	}
	if sp.Snapshot() != nil || sp.Len() != 0 || sp.Dropped() != 0 {
		t.Fatalf("nil Spanner reads are not empty")
	}
	if !sp.Base().IsZero() {
		t.Fatalf("nil Spanner base not zero")
	}
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if s.Child("c") != nil {
		t.Fatalf("nil Span.Child returned a span")
	}
}

// TestSpannerConcurrent exercises the Spanner from many goroutines under the
// race detector: starts, children, attrs, ends, and snapshots interleaved.
func TestSpannerConcurrent(t *testing.T) {
	sp := NewSpanner(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := sp.Start("job")
				c := s.Child("phase")
				c.SetAttr("i", "x")
				c.End()
				s.End()
				_ = sp.Snapshot()
				_ = sp.Len()
			}
		}()
	}
	wg.Wait()
	if sp.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity", sp.Len())
	}
}

// TestWriteChromeJobTrace: the combined export is valid Chrome trace JSON
// containing both clock domains — wall spans on the wall pid, cycle-domain
// lifecycle slices on the cycle pids — every non-metadata event stamped with
// the job id, and the cycle events offset to the simulation's wall start.
func TestWriteChromeJobTrace(t *testing.T) {
	sp := NewSpanner(0)
	root := sp.Start("job", A("job", "j-5"))
	run := root.Child("run")
	simStart := time.Now()
	tr := NewTracer()
	tr.Emit(Event{Kind: KEnqueue, At: 1, End: 1, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})
	tr.Emit(Event{Kind: KQueued, At: 1, End: 20, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})
	tr.Emit(Event{Kind: KIssue, At: 20, End: 20, ReqID: 7, Addr: 0x40, Thread: 0, Read: true, Outcome: "hit"})
	tr.Emit(Event{Kind: KDone, At: 90, End: 90, ReqID: 7, Addr: 0x40, Thread: 0, Read: true})
	run.End()
	root.End()

	var buf bytes.Buffer
	err := WriteChromeJobTrace(&buf, JobTrace{
		JobID: "j-5", Spans: sp.Snapshot(), Base: sp.Base(),
		SimEvents: tr.Events(), SimStart: simStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Ts    uint64         `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var wall, cycle int
	for _, ev := range out.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.Args["job"] != "j-5" {
			t.Fatalf("event %q missing job correlation arg: %v", ev.Name, ev.Args)
		}
		switch {
		case ev.Pid == wallPid:
			wall++
		case ev.Pid >= cyclePidBase:
			cycle++
			wallOff := uint64(simStart.Sub(sp.Base()).Microseconds())
			if ev.Ts < wallOff {
				t.Fatalf("cycle event at ts=%d precedes sim start offset %d", ev.Ts, wallOff)
			}
		default:
			t.Fatalf("event %q on unexpected pid %d", ev.Name, ev.Pid)
		}
	}
	if wall == 0 || cycle == 0 {
		t.Fatalf("export has wall=%d cycle=%d events, want both domains present", wall, cycle)
	}
}

// TestWriteChromeSpansValid: the daemon-wide /debug/trace payload parses and
// names the wall-clock process.
func TestWriteChromeSpansValid(t *testing.T) {
	sp := NewSpanner(0)
	sp.Start("job", A("job", "j-1")).End()

	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, sp.Snapshot(), sp.Base()); err != nil {
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

// TestHistogramQuantile: interpolation inside buckets, the overflow bucket
// bounded by the observed max, and edge cases (empty, clamped q).
func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("lat", []uint64{10, 100, 1000})
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	// 100 observations uniform in (10,100]: the p50 interpolates near the
	// middle of that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(55)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 10 || p50 > 100 {
		t.Fatalf("p50 = %v, want inside (10,100]", p50)
	}
	// Overflow: values beyond the last bound interpolate toward the max, never
	// beyond it.
	h2 := NewRegistry().Histogram("lat", []uint64{10})
	h2.Observe(500)
	h2.Observe(900)
	if q := h2.Quantile(0.99); q > 900 {
		t.Fatalf("overflow p99 = %v exceeds observed max 900", q)
	}
	if q := h2.Quantile(1.0); q != 900 {
		t.Fatalf("p100 = %v, want the max 900", q)
	}
	if q := h2.Quantile(2.0); q != 900 {
		t.Fatalf("clamped q>1 = %v, want 900", q)
	}
	var hn *Histogram
	if hn.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram quantile nonzero")
	}
}
