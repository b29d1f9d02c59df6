package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil histogram must be a safe no-op so instrumented code never branches
// on whether it is enabled.
func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{1, 4})
	for _, v := range []uint64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	// ≤1: {0,1}; ≤4: {2,4}; overflow: {5,100}
	if c := h.counts; c[0] != 2 || c[1] != 2 || c[2] != 2 {
		t.Fatalf("counts = %v", c)
	}
	if h.Count() != 6 || h.Max() != 100 {
		t.Fatalf("count %d max %d", h.Count(), h.Max())
	}
}

func TestTracerFinishCancelsOpenRequests(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Kind: KEnqueue, At: 1, End: 1, ReqID: 7})
	tr.Emit(Event{Kind: KEnqueue, At: 2, End: 2, ReqID: 8})
	tr.Emit(Event{Kind: KDone, At: 50, End: 50, ReqID: 7})
	tr.Finish(100)
	var cancels []uint64
	for _, e := range tr.Events() {
		if e.Kind == KCancel {
			cancels = append(cancels, e.ReqID)
			if e.At != 100 {
				t.Fatalf("cancel at %d, want final cycle 100", e.At)
			}
		}
	}
	if len(cancels) != 1 || cancels[0] != 8 {
		t.Fatalf("cancelled %v, want [8]", cancels)
	}
}

func TestGroupByRequest(t *testing.T) {
	events := []Event{
		{Kind: KEnqueue, ReqID: 5},
		{Kind: KEnqueue, ReqID: 3},
		{Kind: KDone, ReqID: 5},
	}
	groups := GroupByRequest(events)
	if len(groups) != 2 || groups[0][0].ReqID != 5 || len(groups[0]) != 2 || groups[1][0].ReqID != 3 {
		t.Fatalf("groups = %+v", groups)
	}
}

// The Chrome export must be one valid JSON object with a traceEvents array of
// well-formed records: metadata ("M"), complete slices ("X") with durations,
// and instants ("i").
func TestWriteChromeValidJSON(t *testing.T) {
	events := []Event{
		{Kind: KEnqueue, At: 1, End: 1, ReqID: 1, Thread: 0, Channel: 0, Addr: 0x1000},
		{Kind: KQueued, At: 1, End: 9, ReqID: 1, Thread: 0, Channel: 0, Addr: 0x1000},
		{Kind: KIssue, At: 9, End: 9, ReqID: 1, Thread: 0, Channel: 0, Outcome: "hit"},
		{Kind: KData, At: 54, End: 74, ReqID: 1, Thread: 0, Channel: 0},
		{Kind: KDone, At: 74, End: 74, ReqID: 1, Thread: 0, Channel: 0},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Ts    uint64 `json:"ts"`
			Dur   uint64 `json:"dur"`
			Pid   int    `json:"pid"`
			Tid   int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
		if e.Phase == "X" && e.Dur == 0 {
			t.Fatalf("complete slice %q with zero duration", e.Name)
		}
	}
	// 2 metadata records for the one lane, 2 slices (queued, data), 3 instants.
	if phases["M"] != 2 || phases["X"] != 2 || phases["i"] != 3 {
		t.Fatalf("phase counts = %v", phases)
	}
}

func TestWriteJSONLRoundTrippable(t *testing.T) {
	events := []Event{
		{Kind: KEnqueue, At: 1, End: 1, ReqID: 1, Addr: 0xbeef, Thread: 2, Queue: 3},
		{Kind: KData, At: 5, End: 9, ReqID: 1, Addr: 0xbeef, Thread: 2},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if m["addr"] != "0xbeef" {
			t.Fatalf("addr = %v, want hex string", m["addr"])
		}
	}
	if !strings.Contains(lines[1], `"end":9`) {
		t.Fatalf("phase event must carry end: %s", lines[1])
	}
}

// TestHistogramQuantile: interpolation inside buckets, the overflow bucket
// bounded by the observed max, and edge cases (empty, clamped q).
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
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
	h2 := NewHistogram([]uint64{10})
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

func TestObserverProgressHook(t *testing.T) {
	var at []uint64
	ob := &Observer{ProgressInterval: 100, Progress: func(now uint64) { at = append(at, now) }}
	for now := uint64(1); now <= 250; now++ {
		ob.OnCycle(now)
	}
	// First fire at cycle 1 (nextProgress starts at 0), then every >=100.
	want := []uint64{1, 101, 201}
	if len(at) != len(want) {
		t.Fatalf("progress fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("progress fired at %v, want %v", at, want)
		}
	}
}
