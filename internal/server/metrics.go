package server

import (
	"sync"
	"sync/atomic"
	"time"

	"smtdram/internal/obs"
)

// metrics holds the counters and histograms behind /v1/stats. Counters are
// atomic; histograms are single-writer, so metricsMu guards every histogram
// observation and every summary. The result memo, its disk tier and the
// checkpoint cache keep their own tallies, which statsSnapshot reads directly.
type metrics struct {
	metricsMu  sync.Mutex
	mAccepted  atomic.Uint64
	mRejected  atomic.Uint64
	mDeduped   atomic.Uint64
	mCached    atomic.Uint64
	mCompleted atomic.Uint64
	mFailed    atomic.Uint64
	mCancelled atomic.Uint64
	// Two-speed-clock aggregates across completed simulation runs: how many
	// runs reported skip statistics, and the summed skipped/wall cycles
	// (their ratio is the fleet-wide skip rate served by /v1/stats).
	mSkipRuns      atomic.Uint64
	mCyclesSkipped atomic.Uint64
	mCyclesWall    atomic.Uint64
	// Disk-tier write-through failures and journal appends.
	mStoreWriteErrors atomic.Uint64
	mJournalRecords   atomic.Uint64
	// Submissions shed by tenant quota.
	mQuotaRejected atomic.Uint64
	// End-to-end latency splits by how the job was answered: served (a real
	// run, or joining one) vs cache (answered from the memo). Folding both
	// into one histogram would poison the percentiles — cache hits are ~0 ms.
	// These µs series feed /v1/stats' percentiles: the served end-to-end plus
	// its exact phase partition, and the pool's slot wait.
	latServedUs *obs.Histogram
	latCacheUs  *obs.Histogram
	phAdmitUs   *obs.Histogram
	phQueueUs   *obs.Histogram
	phRunUs     *obs.Histogram
	phRespondUs *obs.Histogram
	poolWaitUs  *obs.Histogram
}

// registerMetrics builds the histograms, hooks the pool's slot wait and
// starts the runtime sampler.
func (s *Server) registerMetrics() {
	usBounds := []uint64{
		50, 100, 250, 500,
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
	}
	s.latServedUs = obs.NewHistogram(usBounds)
	s.latCacheUs = obs.NewHistogram(usBounds)
	s.phAdmitUs = obs.NewHistogram(usBounds)
	s.phQueueUs = obs.NewHistogram(usBounds)
	s.phRunUs = obs.NewHistogram(usBounds)
	s.phRespondUs = obs.NewHistogram(usBounds)
	s.poolWaitUs = obs.NewHistogram(usBounds)
	s.pool.Instrument(func(_ string, wait time.Duration) {
		s.metricsMu.Lock()
		s.poolWaitUs.Observe(usOf(wait))
		s.metricsMu.Unlock()
	})
	s.vitals = obs.NewRuntimeSampler()
}

// usOf converts a duration to whole non-negative microseconds.
func usOf(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d.Microseconds())
}

// observeCacheHit records a cache-answered submission's end-to-end latency.
func (s *Server) observeCacheHit(d time.Duration) {
	s.metricsMu.Lock()
	s.latCacheUs.Observe(usOf(d))
	s.metricsMu.Unlock()
}

// observeServed records a served job's end-to-end latency and its exact
// phase partition (admission + queue + run + respond == e2e).
func (s *Server) observeServed(e2e, admit, queue, run, respond time.Duration) {
	s.metricsMu.Lock()
	s.latServedUs.Observe(usOf(e2e))
	s.phAdmitUs.Observe(usOf(admit))
	s.phQueueUs.Observe(usOf(queue))
	s.phRunUs.Observe(usOf(run))
	s.phRespondUs.Observe(usOf(respond))
	s.metricsMu.Unlock()
}
