// Package server is the simulation-as-a-service daemon behind cmd/smtdramd:
// an HTTP/JSON API that accepts simulation and figure-sweep submissions,
// runs them on a bounded worker pool, and serves results from a
// fingerprint-keyed memo (runner.Memo: memory in LRU order, then the disk
// store, then fleet peers) that also collapses identical in-flight requests
// into one computation.
//
// The serving contract mirrors the CLI exactly: a submitted configuration
// produces a core.Result byte-identical to `smtdram -json` with the same
// knobs, because both paths build the same core.Config and marshal the same
// struct. On top of that the daemon adds the serving machinery a sweep
// workload wants: admission control (429 + Retry-After when the queue is
// full), request dedup (two identical in-flight submissions share one
// simulation), result caching (a repeated configuration is answered without
// simulating), per-job cancellation threaded into the run loop, streaming
// progress over SSE, Prometheus metrics, and graceful drain.
//
// Endpoints:
//
//	POST   /v1/sim             submit a simulation (SimRequest) -> JobStatus
//	POST   /v1/figures         submit a figure sweep (FigRequest) -> JobStatus
//	GET    /v1/jobs/{id}       poll a job -> JobStatus (result inline when done)
//	GET    /v1/jobs/{id}/result raw result bytes (the byte-identical payload)
//	GET    /v1/jobs/{id}/events SSE progress stream (progress*, then done)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}/trace Chrome trace_event JSON for one job (wall + cycle domains)
//	GET    /v1/stats           JSON stats snapshot (per-phase latency percentiles)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            pure liveness (200 whenever the process serves)
//	GET    /readyz             readiness: 503 during drain, journal recovery, or store-degraded mode
//	GET    /debug/trace        Chrome trace_event JSON of the whole span buffer
//	GET    /debug/dash         live HTML dashboard (SSE-fed)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/obs"
	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth bounds how many jobs may be queued or running at once
	// (admission control; default 64). Submissions beyond it get 429.
	QueueDepth int
	// Workers bounds how many simulations run concurrently (default
	// GOMAXPROCS). Figure sweeps use the same value for their internal
	// parallelism.
	Workers int
	// CacheEntries is the result cache capacity (default 256; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// ProgressInterval is the minimum simulated-cycle gap between streamed
	// progress samples (default 10 000).
	ProgressInterval uint64
	// MaxTrackedJobs bounds the job table; the oldest finished jobs are
	// forgotten beyond it (default 4096).
	MaxTrackedJobs int
	// SpanCapacity bounds the wall-clock span buffer behind /debug/trace and
	// the per-job traces; the oldest finished spans fall off first (default
	// 8192).
	SpanCapacity int
	// Logger receives structured lifecycle logs with job/flight correlation
	// keys. Nil discards all logging.
	Logger *slog.Logger
	// DataDir enables the durability layer: a content-addressed on-disk
	// result store and a write-ahead job journal live under it, and startup
	// replays the journal to recover jobs interrupted by a crash. Empty
	// keeps the daemon memory-only.
	DataDir string
	// Fsync is the store/journal flush policy. The default (off) is durable
	// against process death — SIGKILL included — because writes have crossed
	// into the kernel; FsyncAlways additionally survives OS crash and power
	// loss.
	Fsync store.FsyncPolicy
	// CheckpointDir persists warmup checkpoints (DESIGN §15) under its own
	// content-addressed store, so figure sweeps fork warm re-runs across
	// daemon restarts. Empty keeps warmup memoization in-memory only.
	CheckpointDir string
	// CheckpointEntries bounds the in-memory checkpoint tier (default 64;
	// 0 keeps the default, negative removes the bound).
	CheckpointEntries int
	// NodeID names this daemon in a fleet (DESIGN §16). When set, job ids
	// become "j-<node>-<n>" so a coordinator can route job lookups
	// statelessly, and /metrics and /v1/stats carry node_id/role labels.
	// Must not contain '-'; empty means a standalone daemon.
	NodeID string
	// PeerFetch, when non-nil, adds the peering tier behind the result memo:
	// on a local store miss the daemon asks fleet peers for the entry before
	// computing. internal/fleet provides the implementation.
	PeerFetch PeerFetcher
	// PeerTimeout bounds one peer fetch (default 2s).
	PeerTimeout time.Duration
	// Admission, when non-nil, charges every submission to its tenant's token
	// bucket in front of the bounded queue.
	Admission Admission
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = 10_000
	}
	if c.MaxTrackedJobs <= 0 {
		c.MaxTrackedJobs = 4096
	}
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = 8192
	}
	if c.CheckpointEntries == 0 {
		c.CheckpointEntries = 64
	}
	return c
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SkipInfo is the wire form of a run's two-speed-clock summary (obs.SkipStats
// plus the derived rate). It rides beside the result — in JobStatus, in
// X-Smtdram-Skip-* headers on /result, and in the /v1/stats aggregate — never
// inside it: the result payload stays byte-identical to the CLI's -json
// output, which byte-identity gates compare against.
type SkipInfo struct {
	// Skipped is the number of cycles fast-forwarded over; Wall is the run's
	// total wall-clock simulation cycles (warmup included).
	Skipped uint64 `json:"skipped_cycles"`
	Wall    uint64 `json:"wall_cycles"`
	// Segments counts contiguous skip windows; Longest is the largest one.
	Segments uint64 `json:"segments"`
	Longest  uint64 `json:"longest"`
	// Rate is Skipped/Wall.
	Rate float64 `json:"rate"`
}

// skipInfoOf converts a run's SkipStats for the wire; nil when the run never
// engaged the two-speed clock (disabled, or a zero-cycle run).
func skipInfoOf(st obs.SkipStats) *SkipInfo {
	if st.Wall == 0 {
		return nil
	}
	return &SkipInfo{
		Skipped: st.Skipped, Wall: st.Wall,
		Segments: st.Segments, Longest: st.Longest,
		Rate: st.Rate(),
	}
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Cached marks a submission answered straight from the result cache;
	// Deduped marks one that joined another submission's in-flight run; Peer
	// marks a cached answer whose bytes were fetched from a fleet peer.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	Peer    bool `json:"peer,omitempty"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Result is the raw result payload, present once State is done.
	Result json.RawMessage `json:"result,omitempty"`
	// Progress is the latest streamed progress sample, if any arrived.
	Progress json.RawMessage `json:"progress,omitempty"`
	// Skip is the run's two-speed-clock summary, present on done simulation
	// jobs (cached answers replay the producing run's). Figure sweeps, which
	// aggregate many runs, omit it.
	Skip *SkipInfo `json:"skip,omitempty"`
}

// Server is the daemon. Build with New, mount Handler, and Drain on
// shutdown.
type Server struct {
	cfg  Config
	pool *runner.Pool

	// results memoizes result bytes by fingerprint: resolved results in LRU
	// order (CacheEntries), computations in flight (one per fingerprint, see
	// flight), and behind them the disk store and the fleet's peers
	// (results.go). storeTier/peerTier are nil when not configured.
	results   runner.Memo[string, result]
	storeTier *runner.Tier[string, result]
	peerTier  *runner.Tier[string, result]

	mu        sync.Mutex
	jobs      map[string]*job
	jobOrder  []string // insertion order, for bounded retention
	startedAt time.Time

	// checkpoints memoizes warmup prefixes for the figure-sweep path
	// (DESIGN §15); always non-nil, store-backed when CheckpointDir is set.
	checkpoints *checkpoint.Cache

	// Durability layer (durable.go). store/journal are nil when DataDir is
	// empty or opening failed; storeWanted distinguishes "memory-only by
	// choice" from "degraded". recovered and the recN counts are written
	// once during New's journal recovery, before the handler is reachable.
	store                                     *store.Store
	journal                                   *store.Journal
	storeWanted                               bool
	recovered                                 []*job
	recReplayed, recRehydrated, recReenqueued int

	slots      chan struct{} // admission tokens: queued + running jobs
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseStop   context.CancelFunc
	draining   atomic.Bool
	nextID     atomic.Uint64
	nextFlight atomic.Uint64
	busy       atomic.Int64 // flights currently executing on a pool worker

	log    *slog.Logger
	spans  *obs.Spanner // wall-clock serving trace
	vitals func() obs.RuntimeVitals

	metrics
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      runner.NewPooled(cfg.Workers),
		jobs:      map[string]*job{},
		slots:     make(chan struct{}, cfg.QueueDepth),
		startedAt: time.Now(),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.spans = obs.NewSpanner(cfg.SpanCapacity)
	s.results.SetCap(cfg.CacheEntries)

	// Warmup-checkpoint cache: memory-only by default, store-backed when a
	// checkpoint directory is configured. An unopenable directory degrades to
	// memory-only memoization rather than refusing to serve.
	s.checkpoints = checkpoint.New()
	if cfg.CheckpointDir != "" {
		if c, err := checkpoint.Open(cfg.CheckpointDir, cfg.Fsync); err != nil {
			s.log.Warn("checkpoint store unavailable; memoizing warmups in memory only", "dir", cfg.CheckpointDir, "err", err)
		} else {
			s.checkpoints = c
		}
	}
	if cfg.CheckpointEntries > 0 {
		s.checkpoints.SetCap(cfg.CheckpointEntries)
	}

	s.registerMetrics()
	// Open the tiers and replay the journal last: recovery re-enqueues
	// interrupted jobs through the flight machinery built above.
	s.openDurable()
	s.openTiers()
	if s.store != nil {
		s.recoverFromJournal()
	}
	return s
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/figures", s.handleFigures)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/peer/result", s.handlePeerResult)
	mux.HandleFunc("GET /v1/fleet/self", s.handleFleetSelf)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	mux.HandleFunc("GET /debug/dash/stream", s.handleDashStream)
	return mux
}

// Drain stops admitting work and waits for every in-flight job to finish.
// When ctx expires first, remaining flights are cancelled and Drain returns
// ctx.Err() after they unwind — a bounded wait, because cancellation reaches
// every queued simulation immediately and every running one (including each
// leg of a figure sweep) at its next watchdog boundary.
//
// The draining flag flips under s.mu: submit re-checks it under the same
// mutex before its wg.Add, so once Drain holds and releases the lock no new
// flight can be added while wg.Wait may be observing a zero counter.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseStop() // cancel every flight; runs unwind at the next watchdog boundary
		<-done
		return ctx.Err()
	}
}

// Close cancels all in-flight work immediately (tests; Drain is the polite
// path).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.baseStop()
	s.wg.Wait()
}

// serveCached registers a done-from-cache job holding res and answers the
// submission 200. root/adm are the submission's spans; both end here with the
// cache-hit outcome. Counters are touched outside s.mu (metricsMu nests
// outside it — the /metrics render holds it while gauges read s.mu).
func (s *Server) serveCached(w http.ResponseWriter, kind, fp string, res result, t0 time.Time, root, adm *obs.Span, peer bool) {
	s.mu.Lock()
	j := s.newJobLocked(kind, fp)
	j.cached = true
	j.peer = peer
	j.state = StateDone
	j.result = res.val
	j.skip = res.skip
	j.span = root
	root.SetAttr("job", j.id)
	s.mu.Unlock()
	outcome := "cache_hit"
	if peer {
		outcome = "peer_hit"
	}
	adm.SetAttr("outcome", outcome)
	adm.End()
	root.SetAttr("state", string(StateDone))
	root.End()
	s.count(s.mAccepted)
	s.count(s.mCached)
	s.observeCacheHit(time.Since(t0))
	s.log.Info("job cache hit", "job", j.id, "kind", kind, "fp", fp, "peer", peer)
	writeJSON(w, http.StatusOK, j.status(true))
}

// submit runs the common submission path: pass the gate (admission.go),
// answer from the result memo — memory, the disk store, or a fleet peer —
// or take a queue slot and join the fingerprint's computation, starting fn
// when none is in flight. reqJSON is the original wire request, journaled
// write-ahead so a crashed daemon can re-run the job. r carries the tenant
// header for admission. Every outcome — even a rejection — leaves a span tree
// in the serving trace.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, fp string, reqJSON []byte, fn computeFn) {
	t0 := time.Now()
	root := s.spans.Start("job", obs.A("kind", kind), obs.A("fp", fp))
	adm := root.Child("admission")
	endWith := func(outcome string) { // unadmitted exits: close the tree
		adm.SetAttr("outcome", outcome)
		adm.End()
		root.SetAttr("state", outcome)
		root.End()
	}
	if s.rejectDraining(w) {
		endWith("draining")
		return
	}
	// Tenant quota first: the bucket prices every submission — cached answers
	// included — so a tenant hammering warm keys still pays for the requests.
	if !s.chargeTenant(w, r) {
		endWith("rejected_tenant_quota")
		return
	}
	// One Lookup walks memory → disk → peers (IO outside s.mu), promoting a
	// hit towards memory; identical concurrent misses share one walk. A
	// cached answer takes no queue slot.
	if res, src, ok := s.results.Lookup(r.Context(), fp, -1); ok {
		s.serveCached(w, kind, fp, res, t0, root, adm, src != nil && src == s.peerTier)
		return
	}
	if !s.takeSlot(w) {
		endWith("rejected_queue_full")
		return
	}

	s.mu.Lock()
	// Re-check draining under s.mu: Drain flips the flag under the same mutex
	// before wg.Wait, so admitting here (wg.Add in joinFlightLocked) would
	// race the Wait and let a late flight outlive the drain.
	if s.draining.Load() {
		s.mu.Unlock()
		<-s.slots // return the queue slot
		s.rejectDraining(w)
		endWith("draining")
		return
	}
	fl, res, out := s.joinFlightLocked(fp, root, fn)
	if out == runner.Hit {
		// An identical flight completed between the Lookup and admission:
		// starting a fresh simulation for bytes the memo holds is wasted work.
		s.mu.Unlock()
		<-s.slots // no flight was joined
		s.serveCached(w, kind, fp, res, t0, root, adm, false)
		return
	}
	j := s.newJobLocked(kind, fp)
	j.created = t0 // anchor phase accounting at submit entry, not allocation
	j.tAdmitted = time.Now()
	s.attachLocked(j, fl, root, out)
	s.mu.Unlock()

	outcome := "admitted"
	if j.deduped {
		outcome = "deduped"
		s.count(s.mDeduped)
	}
	adm.SetAttr("outcome", outcome)
	adm.End()
	s.count(s.mAccepted)
	// Write-ahead: the submitted record (with the full request) is on disk
	// before the client hears "accepted", so an acknowledged job survives a
	// crash at any later point.
	s.journalAppend(store.Record{Type: store.RecSubmitted, Job: j.id, Kind: kind, FP: fp, Request: reqJSON})
	s.log.Info("job accepted", "job", j.id, "kind", kind, "fp", fp, "flight", fl.id, "deduped", j.deduped)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// simFlightFn builds the compute function for one simulation flight: run the
// machine under the flight's context with a progress-streaming observer and
// marshal the Result. The marshalled bytes are the byte-identical payload —
// the same json.Marshal of the same core.Result the CLI's -json flag emits.
func (s *Server) simFlightFn(fl *flight, cfg core.Config, traced bool) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		runSpan := s.markRunning(fl)
		s.busy.Add(1)
		defer s.busy.Add(-1)
		s.count(s.mSimsRun)
		var sim *core.Simulator
		ob := &obs.Observer{ProgressInterval: s.cfg.ProgressInterval, RunSpan: runSpan}
		ob.Progress = func(now uint64) {
			if sim == nil {
				return // constructor-time call; nothing to report yet
			}
			if b, err := json.Marshal(sim.Progress(now)); err == nil {
				s.broadcastProgress(fl, b)
			}
		}
		if traced {
			// Cycle-domain lifecycle trace, merged into per-job traces by
			// wall-clock offset. Observation only: the tracer never constrains
			// the two-speed clock, so results stay byte-identical.
			ob.Trace = obs.NewTracer()
		}
		cfg.Observe = func() *obs.Observer { return ob }
		var err error
		sim, err = core.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		simStart := time.Now() // wall-clock instant of cycle 0
		res, err := sim.RunContext(ctx)
		// Skip statistics ride beside the result, never inside it: the
		// payload below stays byte-identical to the CLI's -json output.
		skip := skipInfoOf(sim.SkipStats())
		s.mu.Lock()
		fl.skip = skip
		if ob.Trace != nil {
			fl.simStart = simStart
			fl.simEvents = ob.Trace.Events()
		}
		s.mu.Unlock()
		if skip != nil {
			s.mSkipRuns.Inc()
			s.mCyclesSkipped.Add(skip.Skipped)
			s.mCyclesWall.Add(skip.Wall)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
}

// figFlightFn builds the compute function for one figure sweep: render the
// tables into a buffer and wrap them in a small JSON envelope. ctx threads
// through figures.Options into every simulation the sweep schedules, so a
// cancelled or drained sweep aborts between configurations (and mid-run at
// the watchdog boundary) instead of finishing the remaining grid.
func (s *Server) figFlightFn(fl *flight, req FigRequest) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		s.markRunning(fl)
		s.busy.Add(1)
		defer s.busy.Add(-1)
		s.count(s.mFigsRun)
		var buf bytes.Buffer
		if err := req.run(ctx, s.pool.Jobs(), &buf, s.checkpoints); err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Fig    string `json:"fig"`
			Output string `json:"output"`
		}{Fig: req.Fig, Output: buf.String()})
	}
}
