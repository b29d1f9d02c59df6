package obs

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"event.pending":       "event_pending",
		"jobs_accepted_total": "jobs_accepted_total",
		"weird name/π":        "weird_name__",
		"9lives":              "_9lives",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(1000)
	r.Gauge("queue.depth", func(now uint64) float64 { return float64(now) / 2 })
	r.Counter("jobs.accepted").Add(3)
	h := r.Histogram("latency.ms", []uint64{1, 10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WritePrometheus(&b, "smtdram", 10, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE smtdram_queue_depth gauge\nsmtdram_queue_depth 5\n",
		"# TYPE smtdram_jobs_accepted counter\nsmtdram_jobs_accepted 3\n",
		"# TYPE smtdram_latency_ms histogram\n",
		"smtdram_latency_ms_bucket{le=\"1\"} 0\n",
		"smtdram_latency_ms_bucket{le=\"10\"} 1\n",
		"smtdram_latency_ms_bucket{le=\"100\"} 2\n",
		"smtdram_latency_ms_bucket{le=\"+Inf\"} 3\n",
		"smtdram_latency_ms_sum 5055\n",
		"smtdram_latency_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// A nil registry renders nothing and does not crash.
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&b, "x", 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObserverProgressHook(t *testing.T) {
	var at []uint64
	ob := &Observer{ProgressInterval: 100, Progress: func(now uint64) { at = append(at, now) }}
	for now := uint64(1); now <= 250; now++ {
		ob.OnCycle(now, 0)
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
