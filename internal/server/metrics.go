package server

import (
	"sync"
	"time"

	"smtdram/internal/obs"
)

// metrics is the daemon's registry and the handles it increments itself.
// Counters are internally atomic; gauges and histograms are single-writer, so
// metricsMu guards every histogram observation and every render. metricsMu
// nests OUTSIDE s.mu: never acquire it while holding s.mu. The result memo,
// its disk tier and the checkpoint cache keep their own tallies; the registry
// reads those directly (obs.Registry.CounterFunc).
type metrics struct {
	metricsMu  sync.Mutex
	reg        *obs.Registry
	mAccepted  *obs.Counter
	mRejected  *obs.Counter
	mDeduped   *obs.Counter
	mCached    *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mCancelled *obs.Counter
	mSimsRun   *obs.Counter
	// Two-speed-clock aggregates across completed simulation runs: how many
	// runs reported skip statistics, and the summed skipped/wall cycles
	// (their ratio is the fleet-wide skip rate served by /v1/stats).
	mSkipRuns      *obs.Counter
	mCyclesSkipped *obs.Counter
	mCyclesWall    *obs.Counter
	// Disk-tier write-through failures and journal appends.
	mStoreWriteErrors *obs.Counter
	mJournalRecords   *obs.Counter
	mJournalErrors    *obs.Counter
	// Submissions shed by tenant quota.
	mQuotaRejected *obs.Counter
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

// registerMetrics builds the registry. Registration order is the /metrics
// exposition order.
func (s *Server) registerMetrics() {
	usBounds := []uint64{
		50, 100, 250, 500,
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
	}
	s.reg = obs.NewRegistry()
	s.mAccepted = s.reg.Counter("jobs_accepted_total")
	s.mRejected = s.reg.Counter("jobs_rejected_total")
	s.mDeduped = s.reg.Counter("jobs_deduped_total")
	s.mCached = s.reg.Counter("jobs_cached_total")
	s.mCompleted = s.reg.Counter("jobs_completed_total")
	s.mFailed = s.reg.Counter("jobs_failed_total")
	s.mCancelled = s.reg.Counter("jobs_cancelled_total")
	s.mSimsRun = s.reg.Counter("sims_run_total")
	s.latServedUs = s.reg.Histogram("job_latency_served_us", usBounds)
	s.latCacheUs = s.reg.Histogram("job_latency_cache_us", usBounds)
	s.phAdmitUs = s.reg.Histogram("phase_admission_us", usBounds)
	s.phQueueUs = s.reg.Histogram("phase_queue_us", usBounds)
	s.phRunUs = s.reg.Histogram("phase_run_us", usBounds)
	s.phRespondUs = s.reg.Histogram("phase_respond_us", usBounds)
	s.poolWaitUs = s.reg.Histogram("pool_wait_us", usBounds)
	s.pool.Instrument(func(_ string, wait time.Duration) {
		s.metricsMu.Lock()
		s.poolWaitUs.Observe(usOf(wait))
		s.metricsMu.Unlock()
	})
	s.reg.Gauge("queue_depth", func() float64 { return float64(len(s.slots)) })
	s.reg.Gauge("queue_capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	s.reg.Gauge("workers", func() float64 { return float64(s.pool.Jobs()) })
	s.reg.Gauge("workers_busy", func() float64 { return float64(s.busy.Load()) })
	s.reg.Gauge("uptime_seconds", func() float64 { return time.Since(s.startedAt).Seconds() })
	s.reg.Gauge("trace_spans_dropped", func() float64 { return float64(s.spans.Dropped()) })
	s.reg.Gauge("cache_entries", func() float64 { return float64(s.results.Stats().Entries) })
	s.vitals = obs.RegisterRuntimeMetrics(s.reg)
	// The result memo counts per lookup: a submission is one Lookup, plus a
	// hit if the post-admission Join finds a result that landed in between;
	// a recovery probe is a lookup too.
	s.reg.CounterFunc("cache_hits_total", func() uint64 { return s.results.Stats().Hits })
	s.reg.CounterFunc("cache_misses_total", func() uint64 { return s.results.Stats().Misses })
	s.mSkipRuns = s.reg.Counter("sim_skip_reports_total")
	s.mCyclesSkipped = s.reg.Counter("sim_cycles_skipped_total")
	s.mCyclesWall = s.reg.Counter("sim_cycles_wall_total")
	// Disk-tier lookups: a corrupt entry counts both corrupt and miss. With no
	// store the tier is nil and reads zero.
	s.reg.CounterFunc("store_hits_total", func() uint64 { return s.results.Tier.Stats().Hits })
	s.reg.CounterFunc("store_misses_total", func() uint64 { return s.results.Tier.Stats().Misses })
	s.reg.CounterFunc("store_corrupt_total", func() uint64 { return s.results.Tier.Stats().Corrupt })
	s.mStoreWriteErrors = s.reg.Counter("store_write_errors_total")
	s.mJournalRecords = s.reg.Counter("journal_records_total")
	s.mJournalErrors = s.reg.Counter("journal_errors_total")
	s.mQuotaRejected = s.reg.Counter("jobs_quota_rejected_total")
	s.reg.CounterFunc("checkpoint_hits_total", func() uint64 { return s.checkpoints.Snapshot().Hits })
	s.reg.CounterFunc("checkpoint_misses_total", func() uint64 { return s.checkpoints.Snapshot().Misses })
	s.reg.CounterFunc("checkpoint_forks_total", func() uint64 { return s.checkpoints.Snapshot().Forks })
	s.reg.CounterFunc("checkpoint_bypassed_total", func() uint64 { return s.checkpoints.Snapshot().Bypassed })
	s.reg.CounterFunc("checkpoint_evictions_total", func() uint64 { return s.checkpoints.Snapshot().Evictions })
	s.reg.Gauge("checkpoint_entries", func() float64 {
		return float64(s.checkpoints.Snapshot().Entries)
	})
	s.reg.Gauge("store_entries", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Len())
	})
	s.reg.Gauge("store_degraded", func() float64 {
		if s.durabilityDegraded() {
			return 1
		}
		return 0
	})
	s.reg.Gauge("recovery_outstanding", func() float64 { return float64(s.recoveryOutstanding()) })
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

// count increments a server counter; counters are atomic, so no lock.
func (s *Server) count(c *obs.Counter) { c.Inc() }
