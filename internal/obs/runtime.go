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

// runtimeSampler caches one snapshot of the runtime's vitals for
// runtimeSampleTTL, which bounds the stop-the-world cost of
// runtime.ReadMemStats under aggressive polling of /v1/stats (a client
// polling every millisecond triggers at most ten reads a second). All reads
// go through vitals(), which locks, so concurrent readers never race.
type runtimeSampler struct {
	mu      sync.Mutex
	taken   time.Time
	cur     RuntimeVitals
	samples []metrics.Sample
}

const runtimeSampleTTL = 100 * time.Millisecond

// NewRuntimeSampler returns a reader of the Go runtime's health: goroutine
// count, heap usage, cumulative GC pause time and cycle count, and scheduler
// latency quantiles. The reader is safe to call concurrently, and returns
// the same snapshot to every call within runtimeSampleTTL of the read that
// took it.
func NewRuntimeSampler() func() RuntimeVitals {
	rs := &runtimeSampler{
		samples: []metrics.Sample{
			{Name: "/sched/latencies:seconds"},
		},
	}
	return rs.vitals
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
