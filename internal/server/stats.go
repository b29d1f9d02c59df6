package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"smtdram/internal/obs"
)

// LatencySummary condenses one latency histogram for /v1/stats: observation
// count, mean, bucket-interpolated percentiles, and the observed maximum,
// all in milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// summarizeUs condenses a µs-resolution histogram into millisecond figures.
// Caller holds metricsMu (histograms are single-writer).
func summarizeUs(h *obs.Histogram) LatencySummary {
	const usPerMs = 1000.0
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: h.Mean() / usPerMs,
		P50Ms:  h.Quantile(0.50) / usPerMs,
		P95Ms:  h.Quantile(0.95) / usPerMs,
		P99Ms:  h.Quantile(0.99) / usPerMs,
		MaxMs:  float64(h.Max()) / usPerMs,
	}
}

// Stats is the /v1/stats payload: a point-in-time JSON snapshot of the
// daemon's serving health. The per-phase summaries partition the served
// end-to-end latency: admission + queue + run + respond == end_to_end.served
// for every job, so the phase means (weighted by count) sum to the served
// mean up to microsecond truncation.
type Stats struct {
	// NodeID and Role identify this daemon in a fleet scrape ("" / "single"
	// standalone, the node id / "worker" on a fleet node).
	NodeID        string  `json:"node_id,omitempty"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Jobs          struct {
		Accepted      uint64 `json:"accepted"`
		Rejected      uint64 `json:"rejected"`
		QuotaRejected uint64 `json:"quota_rejected"`
		Deduped       uint64 `json:"deduped"`
		Cached        uint64 `json:"cached"`
		Completed     uint64 `json:"completed"`
		Failed        uint64 `json:"failed"`
		Cancelled     uint64 `json:"cancelled"`
		Tracked       int    `json:"tracked"`
	} `json:"jobs"`
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Workers struct {
		Total int   `json:"total"`
		Busy  int64 `json:"busy"`
	} `json:"workers"`
	Cache struct {
		Entries  int     `json:"entries"`
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
	// Store is the disk tier behind the result memo (memory → disk → compute):
	// content-addressed results that survive restarts. Degraded means an IO
	// error flipped the daemon to memory-only serving.
	Store struct {
		StoreHealth
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Corrupt     uint64 `json:"corrupt"`
		WriteErrors uint64 `json:"write_errors"`
		// JournalRecords counts write-ahead records appended this process.
		JournalRecords uint64 `json:"journal_records"`
	} `json:"store"`
	// Peer is the fleet-peering tier behind the result memo: entries fetched
	// from (and served to) other fleet nodes. Corrupt counts peer entries
	// that failed CRC verification and were recomputed locally instead.
	Peer struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Corrupt uint64 `json:"corrupt"`
		Served  uint64 `json:"served"`
	} `json:"peer"`
	// Recovery reports the startup journal replay: jobs rehydrated from the
	// store and jobs re-enqueued (outstanding until their re-run finishes).
	Recovery RecoveryStatus `json:"recovery"`
	Runtime  struct {
		Goroutines          int     `json:"goroutines"`
		HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
		GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
		GCCycles            uint32  `json:"gc_cycles"`
		SchedLatencyP50Ms   float64 `json:"sched_latency_p50_ms"`
		SchedLatencyP99Ms   float64 `json:"sched_latency_p99_ms"`
	} `json:"runtime"`
	EndToEnd struct {
		Served LatencySummary `json:"served"`
		Cache  LatencySummary `json:"cache"`
	} `json:"end_to_end"`
	// Phases breaks the served end-to-end latency into its exact partition.
	Phases struct {
		Admission LatencySummary `json:"admission"`
		Queue     LatencySummary `json:"queue"`
		Run       LatencySummary `json:"run"`
		Respond   LatencySummary `json:"respond"`
	} `json:"phases"`
	// Skip aggregates the two-speed clock across every completed simulation
	// run: summed skipped and wall cycles and their ratio — the fleet-wide
	// fraction of simulated cycles the daemon fast-forwarded instead of
	// ticking.
	Skip struct {
		SimRuns       uint64  `json:"sim_runs"`
		CyclesSkipped uint64  `json:"cycles_skipped"`
		CyclesWall    uint64  `json:"cycles_wall"`
		Rate          float64 `json:"rate"`
	} `json:"skip"`
	// Checkpoint is the warmup-memoization layer (DESIGN §15) behind the
	// figure-sweep path: hits are warmup prefixes served from a cached
	// machine state, misses are warmups actually simulated, forks are
	// measurement phases started from a checkpoint, and bypassed counts runs
	// whose configuration cannot checkpoint.
	Checkpoint struct {
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		Forks     uint64  `json:"forks"`
		Bypassed  uint64  `json:"bypassed"`
		Evictions uint64  `json:"evictions"`
		Entries   int     `json:"entries"`
		HitRatio  float64 `json:"hit_ratio"`
	} `json:"checkpoint"`
	PoolWait LatencySummary `json:"pool_wait"`
	Trace    struct {
		Spans   int    `json:"spans"`
		Dropped uint64 `json:"spans_dropped"`
	} `json:"trace"`
}

// statsSnapshot assembles the current Stats. Lock order: s.mu first (job
// table), then metricsMu (histograms) — never nested.
func (s *Server) statsSnapshot() Stats {
	var st Stats
	st.NodeID = s.cfg.NodeID
	st.Role = s.Role()
	st.UptimeSeconds = time.Since(s.startedAt).Seconds()
	st.Draining = s.draining.Load()
	st.Jobs.Accepted = s.mAccepted.Value()
	st.Jobs.Rejected = s.mRejected.Value()
	st.Jobs.QuotaRejected = s.mQuotaRejected.Value()
	st.Jobs.Deduped = s.mDeduped.Value()
	st.Jobs.Cached = s.mCached.Value()
	st.Jobs.Completed = s.mCompleted.Value()
	st.Jobs.Failed = s.mFailed.Value()
	st.Jobs.Cancelled = s.mCancelled.Value()
	st.Queue.Depth = len(s.slots)
	st.Queue.Capacity = s.cfg.QueueDepth
	st.Workers.Total = s.pool.Jobs()
	st.Workers.Busy = s.busy.Load()
	memo := s.results.Stats()
	st.Cache.Entries = memo.Entries
	st.Cache.Hits = memo.Hits
	st.Cache.Misses = memo.Misses
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		st.Cache.HitRatio = float64(st.Cache.Hits) / float64(lookups)
	}
	st.Store.StoreHealth = s.storeHealth()
	disk, peer := s.storeTier.Stats(), s.peerTier.Stats()
	st.Store.Hits = disk.Hits
	st.Store.Misses = disk.Misses
	st.Store.Corrupt = disk.Corrupt
	st.Store.WriteErrors = s.mStoreWriteErrors.Value()
	st.Store.JournalRecords = s.mJournalRecords.Value()
	st.Peer.Hits = peer.Hits
	st.Peer.Misses = peer.Misses
	st.Peer.Corrupt = peer.Corrupt
	st.Peer.Served = s.mPeerServed.Value()
	st.Recovery = s.recoveryStatus()
	st.Skip.SimRuns = s.mSkipRuns.Value()
	st.Skip.CyclesSkipped = s.mCyclesSkipped.Value()
	st.Skip.CyclesWall = s.mCyclesWall.Value()
	if st.Skip.CyclesWall > 0 {
		st.Skip.Rate = float64(st.Skip.CyclesSkipped) / float64(st.Skip.CyclesWall)
	}
	ck := s.checkpoints.Snapshot()
	st.Checkpoint.Hits = ck.Hits
	st.Checkpoint.Misses = ck.Misses
	st.Checkpoint.Forks = ck.Forks
	st.Checkpoint.Bypassed = ck.Bypassed
	st.Checkpoint.Evictions = ck.Evictions
	st.Checkpoint.Entries = ck.Entries
	if lookups := ck.Hits + ck.Misses; lookups > 0 {
		st.Checkpoint.HitRatio = float64(ck.Hits) / float64(lookups)
	}

	s.mu.Lock()
	st.Jobs.Tracked = len(s.jobs)
	s.mu.Unlock()

	s.metricsMu.Lock()
	st.EndToEnd.Served = summarizeUs(s.latServedUs)
	st.EndToEnd.Cache = summarizeUs(s.latCacheUs)
	st.Phases.Admission = summarizeUs(s.phAdmitUs)
	st.Phases.Queue = summarizeUs(s.phQueueUs)
	st.Phases.Run = summarizeUs(s.phRunUs)
	st.Phases.Respond = summarizeUs(s.phRespondUs)
	st.PoolWait = summarizeUs(s.poolWaitUs)
	s.metricsMu.Unlock()

	v := s.vitals()
	st.Runtime.Goroutines = v.Goroutines
	st.Runtime.HeapAllocBytes = v.HeapAlloc
	st.Runtime.GCPauseTotalSeconds = v.GCPauseTotal.Seconds()
	st.Runtime.GCCycles = v.GCCycles
	st.Runtime.SchedLatencyP50Ms = v.SchedP50 * 1000
	st.Runtime.SchedLatencyP99Ms = v.SchedP99 * 1000

	st.Trace.Spans = s.spans.Len()
	st.Trace.Dropped = s.spans.Dropped()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleDashStream feeds the /debug/dash page: one SSE "stats" event per
// second carrying a Stats snapshot, until the client hangs up.
func (s *Server) handleDashStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() bool {
		b, err := json.Marshal(s.statsSnapshot())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: stats\ndata: %s\n\n", b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !emit() {
		return
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !emit() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
