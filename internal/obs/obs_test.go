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
	r.Gauge("g", func(uint64) float64 { return 1 })
	r.Sampled("s", func(uint64) float64 { return 1 })
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	h := r.Histogram("h", []uint64{1, 2})
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read zero")
	}
	if h.String() != "(empty)" {
		t.Fatalf("nil histogram String = %q", h.String())
	}
	if _, _, ok := r.Series("s"); ok {
		t.Fatal("nil registry must have no series")
	}
	if _, ok := r.Value("g", 0); ok {
		t.Fatal("nil registry must have no values")
	}
	if r.Final(0) != nil || r.Names() != nil {
		t.Fatal("nil registry snapshots must be empty")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}, "x", 0); err != nil {
		t.Fatal(err)
	}
}

func TestNewObserverAllOff(t *testing.T) {
	if ob := New(Options{}); ob != nil {
		t.Fatal("New with everything off must return nil")
	}
	ob := New(Options{Metrics: true})
	if ob == nil || ob.Reg == nil || ob.Trace != nil || ob.Prof != nil {
		t.Fatalf("New(Metrics) = %+v", ob)
	}
	if ob.Reg.Interval() != 1000 {
		t.Fatalf("default interval = %d, want 1000", ob.Reg.Interval())
	}
}

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry(10)
	v := 0.0
	r.Sampled("x", func(uint64) float64 { return v })
	r.Gauge("y", func(uint64) float64 { return 42 })
	for now := uint64(1); now <= 35; now++ {
		v = float64(now)
		r.MaybeSample(now)
	}
	cycles, vals, ok := r.Series("x")
	if !ok {
		t.Fatal("series x missing")
	}
	// First sample fires on the first cycle, then every 10 cycles.
	wantCycles := []uint64{1, 11, 21, 31}
	if len(cycles) != len(wantCycles) {
		t.Fatalf("sampled at %v, want %v", cycles, wantCycles)
	}
	for i, c := range wantCycles {
		if cycles[i] != c || vals[i] != float64(c) {
			t.Fatalf("sample %d = (%d, %v), want (%d, %d)", i, cycles[i], vals[i], c, c)
		}
	}
	if _, _, ok := r.Series("y"); ok {
		t.Fatal("unsampled gauge must not expose a series")
	}
	if got, ok := r.Value("y", 0); !ok || got != 42 {
		t.Fatalf("Value(y) = %v, %v", got, ok)
	}
	fin := r.Final(99)
	if len(fin) != 2 || fin[0].Name != "x" || fin[1].Name != "y" {
		t.Fatalf("Final = %+v, want registration order x,y", fin)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("h", []uint64{1, 4})
	for _, v := range []uint64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	// ≤1: {0,1}; ≤4: {2,4}; overflow: {5,100}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("counts = %v", counts)
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

func TestFilter(t *testing.T) {
	th0, ch1 := 0, 1
	events := []Event{
		{Kind: KEnqueue, At: 10, End: 10, ReqID: 1, Thread: 0, Channel: 0},
		{Kind: KEnqueue, At: 20, End: 20, ReqID: 2, Thread: 1, Channel: 1},
		{Kind: KData, At: 30, End: 40, ReqID: 1, Thread: 0, Channel: 0},
	}
	if got := FilterEvents(events, Filter{Thread: &th0}); len(got) != 2 {
		t.Fatalf("thread filter kept %d, want 2", len(got))
	}
	if got := FilterEvents(events, Filter{Channel: &ch1}); len(got) != 1 || got[0].ReqID != 2 {
		t.Fatalf("channel filter = %+v", got)
	}
	// Range [35, 100]: the spanning KData event overlaps, the instants do not.
	if got := FilterEvents(events, Filter{From: 35, To: 100}); len(got) != 1 || got[0].Kind != KData {
		t.Fatalf("range filter = %+v", got)
	}
	// To == 0 means unbounded.
	if got := FilterEvents(events, Filter{From: 15}); len(got) != 2 {
		t.Fatalf("open range kept %d, want 2", len(got))
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

func TestRegistryWriteJSONL(t *testing.T) {
	r := NewRegistry(5)
	r.Sampled("depth", func(now uint64) float64 { return float64(now) })
	h := r.Histogram("lat", []uint64{10})
	h.Observe(3)
	h.Observe(50)
	for now := uint64(1); now <= 12; now++ {
		r.MaybeSample(now)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "test-run", 12); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// meta + 3 samples (cycles 1, 6, 11) + 1 hist + final
	if len(lines) != 6 {
		t.Fatalf("%d lines: %v", len(lines), lines)
	}
	var meta map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta["type"] != "meta" || meta["label"] != "test-run" {
		t.Fatalf("meta = %v", meta)
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["type"] != "final" {
		t.Fatalf("last record = %v, want final", last)
	}
}

func TestLoopProfStandalone(t *testing.T) {
	p := NewLoopProf(nil)
	fired := uint64(0)
	for now := uint64(1); now <= 100; now++ {
		fired += now % 3 // 0,1,2 events per cycle
		p.cycle(now, fired)
	}
	p.finish(100)
	if p.Cycles() != 100 {
		t.Fatalf("Cycles = %d", p.Cycles())
	}
	if p.Hist.Count() != 100 || p.Hist.Max() != 2 {
		t.Fatalf("hist count %d max %d", p.Hist.Count(), p.Hist.Max())
	}
	if s := p.Summary(); !strings.Contains(s, "event loop: 100 cycles") {
		t.Fatalf("Summary = %q", s)
	}
}

// The two-speed clock shows the profiler only the cycles it lands on or fires
// events in. A profiler fed that gapped sequence must equal one fed every
// cycle: the gaps, and the tail a run's last span leaves, are event-free
// cycles the profiler charges itself.
func TestLoopProfChargesItsOwnGaps(t *testing.T) {
	const end = 3 * megacycle / 2
	fired := func(now uint64) uint64 { // events on every 7th cycle, a burst on every 1000th
		switch {
		case now%1000 == 0:
			return 40
		case now%7 == 0:
			return now % 3
		}
		return 0
	}
	every, gapped := NewLoopProf(nil), NewLoopProf(nil)
	var total uint64
	for now := uint64(1); now <= end-500; now++ {
		n := fired(now)
		total += n
		every.cycle(now, total)
		if n > 0 || now%1013 == 0 { // an event cycle, or a landing on an idle one
			gapped.cycle(now, total)
		}
	}
	for now := uint64(end - 499); now <= end; now++ { // the event-free tail
		every.cycle(now, total)
	}
	every.finish(end)
	gapped.finish(end)
	if every.Cycles() != end || gapped.Cycles() != end {
		t.Fatalf("Cycles = %d every cycle, %d gapped, want %d", every.Cycles(), gapped.Cycles(), end)
	}
	if a, b := every.Hist.String(), gapped.Hist.String(); a != b {
		t.Fatalf("histograms differ:\nevery cycle: %s\ngapped:      %s", a, b)
	}
	if a, b := len(every.MegacycleWall()), len(gapped.MegacycleWall()); a != 1 || b != 1 {
		t.Fatalf("megacycle marks: %d every cycle, %d gapped, want 1 each", a, b)
	}
}
