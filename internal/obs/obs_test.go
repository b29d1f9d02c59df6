package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Nil handles must be safe no-ops so instrumented code never branches on
// whether observability is enabled.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Gauge("g", func() float64 { return 1 })
	r.CounterFunc("f", func() uint64 { return 1 })
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	h := r.Histogram("h", []uint64{1, 2})
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []uint64{1, 4})
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
