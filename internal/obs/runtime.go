package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeVitals is one coherent snapshot of the Go runtime's health.
type RuntimeVitals struct {
	Goroutines   int
	HeapAlloc    uint64
	GCPauseTotal time.Duration
	GCCycles     uint32
	SchedP50     float64 // scheduler latency, seconds
	SchedP99     float64
}

// runtimeSampler caches one snapshot of the runtime's vitals so a single
// /metrics render — which evaluates every gauge — calls
// runtime.ReadMemStats and metrics.Read once, not once per gauge. The cache
// expires after runtimeSampleTTL, which also bounds the stop-the-world cost
// of ReadMemStats under aggressive scraping. All reads go through vitals(),
// which locks, so concurrent scrapers never race.
type runtimeSampler struct {
	mu      sync.Mutex
	taken   time.Time
	cur     RuntimeVitals
	samples []metrics.Sample
}

const runtimeSampleTTL = 100 * time.Millisecond

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{
		samples: []metrics.Sample{
			{Name: "/sched/latencies:seconds"},
		},
	}
}

func (rs *runtimeSampler) vitals() RuntimeVitals {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.taken.IsZero() || time.Since(rs.taken) >= runtimeSampleTTL {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		metrics.Read(rs.samples)
		rs.cur = RuntimeVitals{
			Goroutines:   runtime.NumGoroutine(),
			HeapAlloc:    mem.HeapAlloc,
			GCPauseTotal: time.Duration(mem.PauseTotalNs),
			GCCycles:     mem.NumGC,
			SchedP50:     schedLatencyQuantile(rs.samples[0], 0.50),
			SchedP99:     schedLatencyQuantile(rs.samples[0], 0.99),
		}
		rs.taken = time.Now()
	}
	return rs.cur
}

// schedLatencyQuantile estimates a quantile of the scheduler-latency
// distribution from runtime/metrics' Float64Histogram, in seconds. The
// bucket holding the target rank reports its midpoint; the open-ended edge
// buckets report their finite edge.
func schedLatencyQuantile(s metrics.Sample, q float64) float64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s.Value.Float64Histogram()
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 { // -Inf underflow bucket
				return hi
			}
			if hi > 1e18 { // +Inf overflow bucket
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// RegisterRuntimeMetrics registers Go runtime health gauges on reg: goroutine
// count, heap usage, cumulative GC pause time and cycle count, and scheduler
// latency quantiles. The gauges are safe to evaluate concurrently (the
// sampler locks internally), and one render triggers at most one
// ReadMemStats. No-op on a nil registry. Returns a reader for callers (the
// daemon's /v1/stats) that want the same snapshot without going through
// gauge evaluation.
func RegisterRuntimeMetrics(reg *Registry) func() RuntimeVitals {
	rs := newRuntimeSampler()
	if reg != nil {
		reg.Gauge("go.goroutines", func(uint64) float64 {
			return float64(rs.vitals().Goroutines)
		})
		reg.Gauge("go.heap_alloc_bytes", func(uint64) float64 {
			return float64(rs.vitals().HeapAlloc)
		})
		reg.Gauge("go.gc_pause_total_seconds", func(uint64) float64 {
			return rs.vitals().GCPauseTotal.Seconds()
		})
		reg.Gauge("go.gc_cycles_total", func(uint64) float64 {
			return float64(rs.vitals().GCCycles)
		})
		reg.Gauge("go.sched_latency_p50_seconds", func(uint64) float64 {
			return rs.vitals().SchedP50
		})
		reg.Gauge("go.sched_latency_p99_seconds", func(uint64) float64 {
			return rs.vitals().SchedP99
		})
	}
	return rs.vitals
}
