// Package obs is the simulator-wide observability layer: a metrics registry
// of counters, gauges, and histograms with optional cycle-interval sampling
// into time series; a request-lifecycle tracer that records every memory
// request's enqueue → schedule → precharge/activate/CAS → data-return
// transitions as structured events (exportable as JSONL and Chrome
// trace_event JSON for Perfetto/about:tracing); and profiling hooks for the
// discrete-event loop.
//
// The package is a leaf: it imports nothing from the simulator, so every
// component (memctrl, dram, cache, cpu, core) can depend on it. All hooks are
// nil-safe — a disabled Observer, Registry, Counter, Histogram, or Tracer
// costs the instrumented code exactly one nil check — so observability is
// free when off and the simulator's determinism is untouched when on.
package obs

// Kind enumerates request-lifecycle transitions. Instant kinds mark a single
// cycle (At == End); phase kinds span [At, End).
type Kind uint8

const (
	// KEnqueue: the request entered a controller channel queue (instant).
	KEnqueue Kind = iota
	// KReject: the request bounced off a full channel queue (instant). A
	// rejected request is retried by the issuer and re-traced on acceptance.
	KReject
	// KQueued: the queueing phase, enqueue → dispatch (phase).
	KQueued
	// KIssue: the scheduler dispatched the request to its bank (instant).
	KIssue
	// KPrecharge: the bank precharged a conflicting open row (phase).
	KPrecharge
	// KActivate: the row access / activation (phase).
	KActivate
	// KCAS: the column access (phase).
	KCAS
	// KData: the line's data-bus transfer (phase).
	KData
	// KDone: the last data beat transferred — terminal (instant).
	KDone
	// KCancel: the run ended with the request still in flight — terminal
	// (instant). Emitted by Tracer.Finish so every traced request reaches a
	// terminal state.
	KCancel
	// KRetry: the fault injector dropped the request's data; Outcome
	// carries the retry's attempt number, or "gave up" when retries were
	// exhausted and the read is delivered with the loss counted (instant).
	KRetry
	// KFailover: the request was migrated off a hard-failed channel; the
	// Channel field is the new home and Outcome names the failed channel
	// (instant).
	KFailover
)

var kindNames = [...]string{
	KEnqueue:   "enqueue",
	KReject:    "reject",
	KQueued:    "queued",
	KIssue:     "issue",
	KPrecharge: "precharge",
	KActivate:  "activate",
	KCAS:       "cas",
	KData:      "data",
	KDone:      "done",
	KCancel:    "cancel",
	KRetry:     "retry",
	KFailover:  "failover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends a request's lifecycle.
func (k Kind) Terminal() bool { return k == KDone || k == KCancel }

// Event is one structured request-lifecycle record.
type Event struct {
	// Kind is the transition or phase.
	Kind Kind
	// At and End bound the event in cycles; End == At for instants.
	At, End uint64
	// ReqID is the simulator-unique request identifier.
	ReqID uint64
	// Addr is the physical line address.
	Addr uint64
	// Thread is the originating hardware thread (-1 for writebacks).
	Thread int
	// Channel, Chip, Bank, Row locate the DRAM access.
	Channel, Chip, Bank int
	Row                 uint64
	// Read distinguishes line fills from writebacks.
	Read bool
	// Outcome is the row-buffer outcome ("hit", "closed", "conflict"),
	// set on KIssue events.
	Outcome string
	// Queue is the channel queue length observed on KEnqueue.
	Queue int
}

// Sink receives lifecycle events. *Tracer is the standard implementation;
// tests substitute their own.
type Sink interface {
	Emit(Event)
}

// Options selects which observability subsystems a run enables.
type Options struct {
	// Metrics enables the registry (and cycle sampling of Sampled gauges).
	Metrics bool
	// MetricsInterval is the sampling period in cycles (default 1000).
	MetricsInterval uint64
	// Trace enables the request-lifecycle tracer.
	Trace bool
	// Profile enables event-loop profiling.
	Profile bool
	// Label tags the run in exported output.
	Label string
}

// SkipStats summarizes the two-speed clock's fast-forwarding over one run:
// how many cycles were skipped (their per-cycle bookkeeping replayed in
// aggregate rather than ticked), across how many contiguous windows, and the
// longest single window. Purely an efficiency observation — a skipped run's
// results are byte-identical to an unskipped one — so it lives beside the
// run's Result, not inside it.
type SkipStats struct {
	// Skipped is the total number of cycles fast-forwarded over.
	Skipped uint64
	// Segments is the number of contiguous skip windows.
	Segments uint64
	// Longest is the largest single window in cycles.
	Longest uint64
	// Wall is the total number of wall-clock simulation cycles the run
	// traversed, warmup included — the honest denominator for Rate. (The
	// Result's Cycles field counts only the measured window, so Skipped can
	// legitimately exceed it.)
	Wall uint64
}

// Rate returns the skipped fraction of the run's wall cycles.
func (s SkipStats) Rate() float64 {
	if s.Wall == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Wall)
}

// Observer bundles one run's observability state. Components receive it at
// construction and register their metrics / hold its Trace sink. A nil
// *Observer disables everything.
type Observer struct {
	// Reg is the metrics registry (nil when metrics are off).
	Reg *Registry
	// Trace is the lifecycle tracer (nil when tracing is off).
	Trace *Tracer
	// Prof is the event-loop profiler (nil when profiling is off).
	Prof *LoopProf
	// Label tags the run in exported output.
	Label string
	// FinalCycle is the cycle the run finished at (set by Finish).
	FinalCycle uint64
	// Skip is the run's two-speed-clock summary (zero when skipping was
	// disabled or never engaged). The run loop copies it in before Finish.
	Skip SkipStats
	// OnFinish, when non-nil, runs after Finish — the hook multi-run
	// harnesses use to flush per-run output.
	OnFinish func(*Observer)

	// RunSpan, when non-nil, is the wall-clock span covering this run in a
	// serving trace; the run loop opens "warmup"/"measure" child spans on it
	// at phase boundaries. Wall-clock only — it never feeds back into the
	// simulation, so results stay byte-identical with or without it.
	RunSpan *Span

	// Progress, when non-nil, fires on the run goroutine roughly every
	// ProgressInterval landed cycles — the serving daemon's streaming hook.
	// Unlike registry samples, progress points do NOT constrain the
	// two-speed clock (NextBoundary ignores them): a fast-forwarded window
	// simply reports from its landing cycle, which is exactly when something
	// next happened. The callback may read the simulator freely (same
	// goroutine) but must not mutate it.
	Progress func(now uint64)
	// ProgressInterval is the minimum cycle gap between Progress calls
	// (default 10 000 when Progress is set).
	ProgressInterval uint64
	nextProgress     uint64
}

// New builds an Observer, or returns nil when every subsystem is off, so
// callers can pass the result straight into a config's Observe hook.
func New(o Options) *Observer {
	if !o.Metrics && !o.Trace && !o.Profile {
		return nil
	}
	ob := &Observer{Label: o.Label}
	if o.Metrics {
		iv := o.MetricsInterval
		if iv == 0 {
			iv = 1000
		}
		ob.Reg = NewRegistry(iv)
	}
	if o.Trace {
		ob.Trace = NewTracer()
	}
	if o.Profile {
		ob.Prof = newLoopProf(ob.Reg)
	}
	return ob
}

// OnCycle is the per-cycle hook the run loop calls after draining the event
// queue: fired is the cumulative event count from the queue.
func (ob *Observer) OnCycle(now, fired uint64) {
	if ob.Prof != nil {
		ob.Prof.cycle(now, fired)
	}
	if ob.Reg != nil {
		ob.Reg.MaybeSample(now)
	}
	if ob.Progress != nil && now >= ob.nextProgress {
		iv := ob.ProgressInterval
		if iv == 0 {
			iv = 10_000
		}
		ob.Progress(now)
		ob.nextProgress = now + iv
	}
}

// NextBoundary returns the next cycle the observer must see land to stay
// byte-identical across a fast-forward — the registry's next sample cycle —
// or 0 when nothing constrains the jump. The run loop clamps skip targets to
// it so sampled gauges are read at exactly the cycles an unskipped run would
// read them.
func (ob *Observer) NextBoundary() uint64 {
	if ob.Reg != nil {
		return ob.Reg.NextSampleAt()
	}
	return 0
}

// OnEventCycle observes an event cycle a quiet span sailed through: the
// cycle's events fired at their exact cycle, but the clock never landed, so
// this stands in for the landed path's per-cycle profiling (the event-free
// cycles between observed ones the profiler accounts itself). Only loop
// profiling sees it — registry sampling is bounded by NextBoundary (sample
// cycles always land), and progress reporting is documented to fire at landed
// cycles only.
func (ob *Observer) OnEventCycle(at, fired uint64) {
	if ob.Prof != nil {
		ob.Prof.cycle(at, fired)
	}
}

// Finish closes the run at its final cycle: open traced requests are
// cancelled, profiling totals close, and OnFinish (if any) fires.
func (ob *Observer) Finish(now uint64) {
	ob.FinalCycle = now
	if ob.Trace != nil {
		ob.Trace.Finish(now)
	}
	if ob.Prof != nil {
		ob.Prof.finish(now)
	}
	if ob.OnFinish != nil {
		ob.OnFinish(ob)
	}
}
