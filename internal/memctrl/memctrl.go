// Package memctrl implements the memory controller: per-logical-channel
// request queues, a dispatch engine over the dram bank models, and the
// access-scheduling policies compared in the paper — FCFS (with read bypass),
// hit-first, age-based, and the three thread-aware schemes (outstanding-
// request-based, ROB-occupancy-based, IQ-occupancy-based).
package memctrl

import (
	"fmt"
	"strings"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/faults"
	"smtdram/internal/mem"
	"smtdram/internal/obs"
)

// Policy selects the access-scheduling scheme.
type Policy int

const (
	// FCFS serves requests in arrival order, but lets reads bypass writes
	// (the paper's reference point).
	FCFS Policy = iota
	// HitFirst adds row-buffer-hit prioritization over read-first
	// (the single-threaded state of the art).
	HitFirst
	// AgeBased is HitFirst plus promotion of the oldest request whenever
	// more than AgeThreshold requests are outstanding.
	AgeBased
	// RequestBased is the thread-aware scheme: among same-type requests,
	// the thread with the fewest pending memory requests goes first.
	RequestBased
	// ROBBased prioritizes the thread holding the most reorder-buffer
	// entries.
	ROBBased
	// IQBased prioritizes the thread holding the most integer issue-queue
	// entries.
	IQBased
	// CriticalityBased prioritizes requests carrying the critical word the
	// processor is stalled on (Section 3.1's fourth single-threaded policy;
	// in this model, demand loads are critical and prefetches/writebacks
	// are not).
	CriticalityBased
)

var policyNames = map[Policy]string{
	FCFS:             "fcfs",
	HitFirst:         "hit-first",
	AgeBased:         "age-based",
	RequestBased:     "request-based",
	ROBBased:         "rob-based",
	IQBased:          "iq-based",
	CriticalityBased: "criticality-based",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a CLI name into a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("memctrl: unknown policy %q (want one of %s)", s, PolicyNames())
}

// PolicyNames lists the names ParsePolicy accepts, for error and usage text.
func PolicyNames() string {
	var names []string
	for _, p := range AllPolicies() {
		names = append(names, p.String())
	}
	return strings.Join(names, ", ")
}

// Policies lists the paper's Figure 10 policies in presentation order.
func Policies() []Policy {
	return []Policy{FCFS, HitFirst, AgeBased, RequestBased, ROBBased, IQBased}
}

// AllPolicies additionally includes the single-threaded criticality-based
// policy from Section 3.1, which Figure 10 omits.
func AllPolicies() []Policy {
	return append(Policies(), CriticalityBased)
}

// Config parameterizes a Controller.
type Config struct {
	// Mapper decodes physical addresses to DRAM locations.
	Mapper addrmap.Mapper
	// Params is the per-channel DRAM timing.
	Params dram.Params
	// Policy is the scheduling scheme.
	Policy Policy
	// QueueDepth is the per-channel pending-request limit (default 64).
	QueueDepth int
	// MaxInFlight bounds how many requests a channel dispatches before the
	// earliest completes; small windows keep scheduling decisions late and
	// therefore better informed (default 4).
	MaxInFlight int
	// AgeThreshold is the outstanding-request count beyond which AgeBased
	// promotes the oldest request (the paper uses 8).
	AgeThreshold int
	// ThreadAwareFirst inverts the paper's priority chain, ranking the
	// thread-aware criterion above hit-first. Section 3.2 argues this is
	// the wrong order for SMT ("the sustained memory bandwidth is more
	// important than the latency of an individual access"); the ablation
	// benchmark exists to check that claim.
	ThreadAwareFirst bool
	// Trace, when non-nil, receives one event per serviced DRAM request —
	// the raw material for offline scheduling analysis (cmd/tracedump).
	Trace func(TraceEvent)
	// Obs, when non-nil, attaches the observability layer: the controller
	// emits request-lifecycle events into Obs.Trace and registers its
	// metrics (queue depths, outstanding requests, row-buffer hit rate, bus
	// utilization) into Obs.Reg. Nil costs the hot path one pointer check.
	Obs *obs.Observer
	// Threads is the number of hardware threads (for per-thread stats).
	Threads int
	// Injector, when non-nil, is the fault-injection subsystem: reads may
	// come back with ECC errors or be dropped, and a channel may hard-fail
	// mid-run. Nil (every fault-free run) costs one pointer check per read.
	Injector *faults.Injector
	// MaxRetries bounds how many times a dropped or ECC-uncorrectable read
	// is re-queued before the controller gives up and surfaces the loss
	// (default 3).
	MaxRetries int
	// RetryBackoff is the base delay in cycles before the first retry;
	// attempt n waits RetryBackoff << (n-1), capped at six doublings
	// (default 16).
	RetryBackoff uint64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.AgeThreshold == 0 {
		c.AgeThreshold = 8
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 16
	}
	return c
}

// Validate rejects incoherent controller configurations: a broken mapper
// (zero channels, non-power-of-two interleave units, failover target out of
// range), negative queue/window/retry bounds, or a fault plan that does not
// fit the geometry. core calls this during machine assembly; New also calls
// it, so hand-built controllers get the same checks.
func (c Config) Validate() error {
	if err := c.Mapper.Validate(); err != nil {
		return err
	}
	if c.QueueDepth < 0 || c.MaxInFlight < 0 || c.AgeThreshold < 0 {
		return fmt.Errorf("memctrl: negative queue/window bound (depth %d, in-flight %d, age %d)",
			c.QueueDepth, c.MaxInFlight, c.AgeThreshold)
	}
	if c.Threads < 0 {
		return fmt.Errorf("memctrl: negative thread count %d", c.Threads)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("memctrl: negative retry bound %d", c.MaxRetries)
	}
	if err := c.Injector.Plan().Validate(c.Mapper.Geo.Channels); err != nil {
		return err
	}
	return nil
}

// TraceEvent describes one serviced DRAM request.
type TraceEvent struct {
	// Arrive and Done are the enqueue and last-data-beat cycles.
	Arrive, Done uint64
	// Issue is the cycle the request was dispatched to its bank.
	Issue uint64
	// Addr is the physical line address.
	Addr uint64
	// Channel, Chip, Bank, Row locate the access.
	Channel, Chip, Bank int
	Row                 uint64
	// Thread is the originating hardware thread (-1 for writebacks).
	Thread int
	// Read distinguishes fills from writebacks.
	Read bool
	// Outcome is the row-buffer outcome (hit/closed/conflict).
	Outcome dram.Outcome
	// QueuedBehind is the queue length seen on arrival.
	QueuedBehind int
}

// entry is a queued request plus its decoded location. Entries are recycled
// through the controller's free list, and after dispatch the entry doubles as
// the request's completion event (it implements event.Handler), so steady-state
// request traffic allocates neither entries nor closures.
type entry struct {
	req          *mem.Request
	loc          addrmap.Loc
	seq          uint64
	queuedBehind int
	attempt      uint8 // fault retries consumed so far
	backoff      bool  // entry is waiting out a retry backoff delay

	ctrl *Controller
	cc   *channelCtl // dispatching channel, set when the completion is armed
}

// OnEvent fires at the request's last data beat — or, for an entry parked in
// retry backoff, at the end of its delay. The completion path returns the
// entry to the free list up front — the body below may enqueue follow-on
// requests (via OnComplete or dispatch) that immediately reuse it — so every
// field is copied to locals first.
func (e *entry) OnEvent(at uint64) {
	c := e.ctrl
	if e.backoff {
		e.backoff = false
		c.requeue(at, e)
		return
	}
	cc := e.cc
	cc.inFlight--
	if c.inj != nil && e.req.IsRead() && c.absorbFault(at, e) {
		// The read came back damaged or lost; the entry is parked for a
		// backoff retry and must not complete. The freed in-flight slot
		// can serve someone else meanwhile.
		c.dispatch(at, cc)
		return
	}
	req, loc := e.req, e.loc
	c.releaseEntry(e)
	if req.IsRead() {
		c.Stats.ReadLatencySum += at - req.Arrive
		if t := req.Thread; t >= 0 && t < len(c.Stats.ThreadReads) {
			c.Stats.ThreadReads[t]++
			c.Stats.ThreadReadLatencySum[t] += at - req.Arrive
		}
	}
	c.accountChange(at, req.Thread, -1)
	if c.lc != nil {
		c.lc.Emit(lcEvent(obs.KDone, at, at, req, loc))
	}
	if req.OnComplete != nil {
		req.OnComplete(at)
	}
	c.dispatch(at, cc)
}

type channelCtl struct {
	dev        *dram.Channel
	queue      []*entry
	inFlight   int
	retryArmed bool
	failed     bool       // hard channel failure: never dispatches again
	retry      retryEvent // pre-bound bank-ready wake-up (one per channel)
}

// retryEvent is the bank-ready wake-up armed by armRetry. One lives in each
// channelCtl, bound at construction, so arming a retry never allocates.
type retryEvent struct {
	c  *Controller
	cc *channelCtl
}

func (r *retryEvent) OnEvent(at uint64) {
	r.cc.retryArmed = false
	r.c.dispatch(at, r.cc)
}

// maxTrackedOutstanding caps the concurrency histograms.
const maxTrackedOutstanding = 64

// Stats aggregates controller-level measurements.
type Stats struct {
	Reads          uint64
	Writes         uint64
	Rejected       uint64 // enqueue attempts bounced by a full queue
	ReadLatencySum uint64 // enqueue → last data beat, reads only

	// ThreadReads / ThreadReadLatencySum break read service down per
	// originating hardware thread (index capped at 15).
	ThreadReads          [16]uint64
	ThreadReadLatencySum [16]uint64

	// OutstandingHist[i] is the number of cycles during which exactly i
	// requests (reads and writebacks — everything presented to the DRAM
	// system) were outstanding (i ≥ 1: the DRAM system was busy). Index
	// maxTrackedOutstanding accumulates everything at or beyond it.
	OutstandingHist [maxTrackedOutstanding + 1]uint64
	// ThreadSpreadHist[k] is the number of cycles during which ≥2 requests
	// were outstanding and exactly k distinct threads had requests pending.
	ThreadSpreadHist [maxTrackedOutstanding + 1]uint64

	// Resilience counters (all zero on fault-free runs).
	//
	// Retries is the number of backoff re-queues of dropped or
	// ECC-uncorrectable reads; RetryGiveUps counts reads delivered with the
	// loss surfaced after exhausting MaxRetries; FailedOver counts queued
	// requests migrated off a hard-failed channel.
	Retries      uint64
	RetryGiveUps uint64
	FailedOver   uint64
}

// BusyCycles is the total time the DRAM system had work outstanding.
func (s *Stats) BusyCycles() uint64 {
	var t uint64
	for i := 1; i <= maxTrackedOutstanding; i++ {
		t += s.OutstandingHist[i]
	}
	return t
}

// AvgReadLatency is the mean read service time in cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.Reads)
}

// Controller is the DRAM memory controller. It implements mem.Controller.
type Controller struct {
	cfg      Config
	q        *event.Queue
	channels []*channelCtl
	seq      uint64

	// mapper is the live address mapping; it starts as cfg.Mapper and is
	// swapped for a degraded remap when a channel hard-fails.
	mapper addrmap.Mapper
	// inj is the fault injector (nil on fault-free runs).
	inj *faults.Injector
	// failover is the pre-bound channel-death event; failoverAt is the
	// cycle it fired (0 = not yet / no plan).
	failover   failoverEvent
	failoverAt uint64

	// lc receives request-lifecycle events; nil when tracing is disabled.
	lc obs.Sink

	// freeEntries recycles queue entries (and their completion events).
	freeEntries []*entry

	// live per-thread pending demand-request counts (the request-based
	// scheme's input; the controller knows these precisely).
	outstanding []int
	threadsBusy int // #threads with outstanding > 0
	totalOut    int // total outstanding demand requests
	lastChange  uint64

	Stats Stats
}

var _ mem.Controller = (*Controller)(nil)

// New builds a controller with one dram.Channel per logical channel of the
// mapper's geometry.
func New(q *event.Queue, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Mapper.Geo
	c := &Controller{
		cfg:         cfg,
		q:           q,
		mapper:      cfg.Mapper,
		inj:         cfg.Injector,
		outstanding: make([]int, cfg.Threads),
	}
	for i := 0; i < g.Channels; i++ {
		dev, err := dram.NewChannel(cfg.Params, g.ChipsPerChannel, g.BanksPerChip)
		if err != nil {
			return nil, err
		}
		cc := &channelCtl{dev: dev}
		cc.retry = retryEvent{c: c, cc: cc}
		c.channels = append(c.channels, cc)
	}
	if _, at := c.inj.ChannelFailAt(); at > 0 {
		c.failover = failoverEvent{c: c}
		c.q.ScheduleHandler(at, &c.failover)
	}
	if cfg.Obs != nil {
		if cfg.Obs.Trace != nil {
			c.lc = cfg.Obs.Trace
		}
		c.registerMetrics(cfg.Obs.Reg)
	}
	return c, nil
}

// failoverEvent fires at the planned channel-death cycle.
type failoverEvent struct{ c *Controller }

func (f *failoverEvent) OnEvent(at uint64) { f.c.failChannel(at) }

// failChannel executes the hard channel failure: the live mapper degrades so
// no new traffic decodes to the dead channel, and every request queued there
// migrates to its failover home on a surviving channel. Requests already
// dispatched to the dead channel's banks complete (their data was latched
// before the failure); the migrated ones keep their arrival time, so the
// latency cost of failing over is visible in the read-latency stats.
func (c *Controller) failChannel(at uint64) {
	ch, _ := c.inj.ChannelFailAt()
	degraded, err := c.mapper.WithoutChannel(ch)
	if err != nil {
		// Validated at construction; a failure here means the plan and the
		// geometry disagree, which Validate already rejects.
		return
	}
	c.mapper = degraded
	c.failoverAt = at
	cc := c.channels[ch]
	cc.failed = true
	migrated := cc.queue
	cc.queue = nil
	for _, e := range migrated {
		e.loc = c.mapper.Map(e.req.Addr)
		c.channels[e.loc.Channel].queue = append(c.channels[e.loc.Channel].queue, e)
		c.Stats.FailedOver++
		if c.lc != nil {
			ev := lcEvent(obs.KFailover, at, at, e.req, e.loc)
			ev.Outcome = fmt.Sprintf("ch%d failed", ch)
			c.lc.Emit(ev)
		}
	}
	for _, tc := range c.channels {
		if !tc.failed && len(tc.queue) > 0 {
			c.dispatch(at, tc)
		}
	}
}

// Failover reports the failed channel and the cycle the failover executed
// ((-1, 0) when no channel has failed).
func (c *Controller) Failover() (channel int, at uint64) {
	if c.failoverAt == 0 {
		return -1, 0
	}
	ch, _ := c.inj.ChannelFailAt()
	return ch, c.failoverAt
}

// Injector exposes the fault injector (nil on fault-free runs) so drivers
// can assemble end-of-run fault reports.
func (c *Controller) Injector() *faults.Injector { return c.inj }

// ECCStats sums the SEC-DED decoder counters over all channels.
func (c *Controller) ECCStats() dram.ECCStats {
	var s dram.ECCStats
	for _, cc := range c.channels {
		s.Detected += cc.dev.ECC.Stats.Detected
		s.Corrected += cc.dev.ECC.Stats.Corrected
		s.Uncorrected += cc.dev.ECC.Stats.Uncorrected
	}
	return s
}

// absorbFault runs the fault injector and the ECC decoder over one completed
// read. It returns true when the read must be retried — the entry has been
// parked on a backoff timer and must not complete. Corrected errors and
// exhausted retries return false: the read completes (the latter with the
// loss counted in RetryGiveUps and the ECC/drop counters).
func (c *Controller) absorbFault(at uint64, e *entry) bool {
	f := c.inj.OnRead(e.loc.Channel, e.loc.Chip, e.loc.Bank, e.loc.Row)
	if f == faults.FaultNone {
		return false
	}
	dev := c.channels[e.loc.Channel].dev
	var outcome string
	retryable := false
	switch f {
	case faults.FaultSingleBit:
		dev.ECC.Scrub(dram.ErrSingleBit)
		outcome = "corrected"
	case faults.FaultMultiBit:
		dev.ECC.Scrub(dram.ErrMultiBit)
		outcome = "uncorrected"
		retryable = true
	case faults.FaultDrop:
		outcome = "dropped"
		retryable = true
	}
	if c.lc != nil {
		ev := lcEvent(obs.KFault, at, at, e.req, e.loc)
		ev.Outcome = outcome
		c.lc.Emit(ev)
	}
	if !retryable {
		return false
	}
	if int(e.attempt) >= c.cfg.MaxRetries {
		c.Stats.RetryGiveUps++
		if c.lc != nil {
			ev := lcEvent(obs.KRetry, at, at, e.req, e.loc)
			ev.Outcome = "gave up"
			c.lc.Emit(ev)
		}
		return false
	}
	e.attempt++
	c.Stats.Retries++
	shift := uint(e.attempt - 1)
	if shift > 6 {
		shift = 6
	}
	e.backoff = true
	c.q.ScheduleHandler(at+(c.cfg.RetryBackoff<<shift), e)
	if c.lc != nil {
		ev := lcEvent(obs.KRetry, at, at, e.req, e.loc)
		ev.Outcome = fmt.Sprintf("attempt %d", e.attempt)
		c.lc.Emit(ev)
	}
	return true
}

// requeue returns a backoff-expired entry to its channel queue, re-decoding
// the address through the live mapper first (a failover may have moved the
// request's home while it waited).
func (c *Controller) requeue(at uint64, e *entry) {
	e.loc = c.mapper.Map(e.req.Addr)
	cc := c.channels[e.loc.Channel]
	cc.queue = append(cc.queue, e)
	c.dispatch(at, cc)
}

// registerMetrics exposes the controller's live state and counters through
// the metrics registry. Sampled gauges become cycle-interval time series;
// plain gauges appear only in the final snapshot.
func (c *Controller) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, cc := range c.channels {
		cc := cc
		reg.Sampled(fmt.Sprintf("memctrl.queue_depth.ch%d", i),
			func(uint64) float64 { return float64(len(cc.queue)) })
		reg.Sampled(fmt.Sprintf("memctrl.in_flight.ch%d", i),
			func(uint64) float64 { return float64(cc.inFlight) })
		reg.Sampled(fmt.Sprintf("dram.bus_busy_frac.ch%d", i),
			func(now uint64) float64 {
				if now == 0 {
					return 0
				}
				return float64(cc.dev.Stats.BusBusy) / float64(now)
			})
	}
	for t := range c.outstanding {
		t := t
		reg.Sampled(fmt.Sprintf("memctrl.outstanding.t%d", t),
			func(uint64) float64 { return float64(c.outstanding[t]) })
	}
	reg.Sampled("memctrl.outstanding.total",
		func(uint64) float64 { return float64(c.totalOut) })
	reg.Sampled("memctrl.row_hit_rate",
		func(uint64) float64 { return 1 - c.RowBufferMissRate() })
	reg.Gauge("memctrl.reads", func(uint64) float64 { return float64(c.Stats.Reads) })
	reg.Gauge("memctrl.writes", func(uint64) float64 { return float64(c.Stats.Writes) })
	reg.Gauge("memctrl.rejected", func(uint64) float64 { return float64(c.Stats.Rejected) })
	reg.Gauge("memctrl.avg_read_latency", func(uint64) float64 { return c.Stats.AvgReadLatency() })
	reg.Gauge("dram.row_hits", func(uint64) float64 { h, _, _ := c.RowBufferStats(); return float64(h) })
	reg.Gauge("dram.row_closed", func(uint64) float64 { _, cl, _ := c.RowBufferStats(); return float64(cl) })
	reg.Gauge("dram.row_conflicts", func(uint64) float64 { _, _, co := c.RowBufferStats(); return float64(co) })
	// Fault/resilience metrics exist only when an injector is attached, so
	// fault-free runs' metrics output is byte-identical to pre-fault builds.
	if c.inj != nil {
		reg.Gauge("faults.injected", func(uint64) float64 { return float64(c.inj.Stats.Total()) })
		reg.Gauge("faults.bitflips", func(uint64) float64 { return float64(c.inj.Stats.BitFlips) })
		reg.Gauge("faults.multibit", func(uint64) float64 { return float64(c.inj.Stats.MultiBit) })
		reg.Gauge("faults.drops", func(uint64) float64 { return float64(c.inj.Stats.Drops) })
		reg.Gauge("ecc.detected", func(uint64) float64 { return float64(c.ECCStats().Detected) })
		reg.Gauge("ecc.corrected", func(uint64) float64 { return float64(c.ECCStats().Corrected) })
		reg.Gauge("ecc.uncorrected", func(uint64) float64 { return float64(c.ECCStats().Uncorrected) })
		reg.Gauge("memctrl.retries", func(uint64) float64 { return float64(c.Stats.Retries) })
		reg.Gauge("memctrl.retry_giveups", func(uint64) float64 { return float64(c.Stats.RetryGiveUps) })
		reg.Gauge("memctrl.failed_over", func(uint64) float64 { return float64(c.Stats.FailedOver) })
		reg.Gauge("memctrl.failover_at", func(uint64) float64 { return float64(c.failoverAt) })
	}
}

// lcEvent builds the common fields of a lifecycle event for a located
// request.
func lcEvent(kind obs.Kind, at, end uint64, r *mem.Request, loc addrmap.Loc) obs.Event {
	return obs.Event{
		Kind: kind, At: at, End: end, ReqID: r.ID, Addr: r.Addr,
		Thread: r.Thread, Channel: loc.Channel, Chip: loc.Chip,
		Bank: loc.Bank, Row: loc.Row, Read: r.IsRead(),
	}
}

// Channels exposes the underlying DRAM channels (for row-buffer stats).
func (c *Controller) Channels() []*dram.Channel {
	out := make([]*dram.Channel, len(c.channels))
	for i, cc := range c.channels {
		out[i] = cc.dev
	}
	return out
}

// Outstanding returns the live pending demand-request count for a thread.
func (c *Controller) Outstanding(thread int) int {
	if thread < 0 || thread >= len(c.outstanding) {
		return 0
	}
	return c.outstanding[thread]
}

// QueueLen returns the number of queued (not yet dispatched) requests on a
// channel; tests use it to observe backpressure.
func (c *Controller) QueueLen(channel int) int { return len(c.channels[channel].queue) }

// Busy reports whether any request is outstanding: queued, in flight, or
// parked on a retry-backoff timer (totalOut counts a request from Enqueue to
// its completion). The controller changes state only from event callbacks, and
// every outstanding request has its next step already scheduled — its
// completion, its backoff expiry, or for a queued one the bank-ready retry or
// the completion that frees a slot of its channel's window — so a busy
// controller facing an empty event queue is a lost wakeup (DESIGN §11).
func (c *Controller) Busy() bool { return c.totalOut != 0 }

// Enqueue accepts a request. It returns false when the target channel's
// queue is full; the caller (an L3 MSHR) must retry.
func (c *Controller) Enqueue(now uint64, r *mem.Request) bool {
	loc := c.mapper.Map(r.Addr)
	cc := c.channels[loc.Channel]
	if len(cc.queue) >= c.cfg.QueueDepth {
		c.Stats.Rejected++
		if c.lc != nil {
			c.lc.Emit(lcEvent(obs.KReject, now, now, r, loc))
		}
		return false
	}
	r.Arrive = now
	e := c.getEntry()
	e.req, e.loc, e.seq, e.queuedBehind = r, loc, c.seq, len(cc.queue)+cc.inFlight
	c.seq++
	cc.queue = append(cc.queue, e)
	if c.lc != nil {
		ev := lcEvent(obs.KEnqueue, now, now, r, loc)
		ev.Queue = len(cc.queue)
		c.lc.Emit(ev)
	}

	if r.IsRead() {
		c.Stats.Reads++
	} else {
		c.Stats.Writes++
	}
	c.accountChange(now, r.Thread, +1)
	c.dispatch(now, cc)
	return true
}

// accountChange updates the time-weighted concurrency histograms when a
// demand request arrives (+1) or completes (-1).
func (c *Controller) accountChange(now uint64, thread, delta int) {
	c.snapshot(now)
	c.totalOut += delta
	if thread >= 0 && thread < len(c.outstanding) {
		before := c.outstanding[thread]
		c.outstanding[thread] += delta
		after := c.outstanding[thread]
		if before == 0 && after > 0 {
			c.threadsBusy++
		}
		if before > 0 && after == 0 {
			c.threadsBusy--
		}
	}
}

func (c *Controller) snapshot(now uint64) {
	dt := now - c.lastChange
	c.lastChange = now
	if dt == 0 {
		return
	}
	if c.totalOut > 0 {
		i := c.totalOut
		if i > maxTrackedOutstanding {
			i = maxTrackedOutstanding
		}
		c.Stats.OutstandingHist[i] += dt
	}
	if c.totalOut >= 2 {
		k := c.threadsBusy
		if k > maxTrackedOutstanding {
			k = maxTrackedOutstanding
		}
		c.Stats.ThreadSpreadHist[k] += dt
	}
}

// dispatch issues queued requests, best-first, while the channel's in-flight
// window has room. A request is only dispatched once its bank can start
// work (bank-ready gating): committing requests to busy banks early would
// freeze their order and rob the scheduling policy of its reordering window.
// When nothing is startable, a wake-up is armed for the earliest bank-free
// time.
func (c *Controller) dispatch(now uint64, cc *channelCtl) {
	if cc.failed {
		return
	}
	for cc.inFlight < c.cfg.MaxInFlight && len(cc.queue) > 0 {
		idx := c.pick(now, cc)
		if idx < 0 {
			c.armRetry(now, cc)
			return
		}
		e := cc.queue[idx]
		cc.queue = append(cc.queue[:idx], cc.queue[idx+1:]...)
		cc.inFlight++

		d := cc.dev.AccessFull(now, e.loc.Chip, e.loc.Bank, e.loc.Row, e.req.IsRead())
		done, out := d.Done, d.Outcome
		req := e.req
		loc := e.loc
		if c.cfg.Trace != nil {
			c.cfg.Trace(TraceEvent{
				Arrive: req.Arrive, Issue: now, Done: done,
				Addr: req.Addr, Channel: e.loc.Channel, Chip: e.loc.Chip,
				Bank: e.loc.Bank, Row: e.loc.Row, Thread: req.Thread,
				Read: req.IsRead(), Outcome: out, QueuedBehind: e.queuedBehind,
			})
		}
		if c.lc != nil {
			c.emitServicePhases(now, req, loc, d, cc.dev.Params())
		}
		e.cc = cc
		c.q.ScheduleHandler(done, e)
	}
}

func (c *Controller) getEntry() *entry {
	if n := len(c.freeEntries); n > 0 {
		e := c.freeEntries[n-1]
		c.freeEntries[n-1] = nil
		c.freeEntries = c.freeEntries[:n-1]
		return e
	}
	return &entry{ctrl: c}
}

// releaseEntry returns a completed entry to the pool. The retry budget is
// the request's, not the slot's, so it is cleared with the request.
func (c *Controller) releaseEntry(e *entry) {
	e.req = nil
	e.cc = nil
	e.attempt, e.backoff = 0, false
	c.freeEntries = append(c.freeEntries, e)
}

// emitServicePhases translates one committed DRAM access into lifecycle
// events: the time spent queued, the dispatch decision (annotated with the
// row-buffer outcome), the bank operations that outcome required — windows
// derived from the timing parameters, since the device reserves
// [Start, Start+prep) for them — and the data-bus transfer.
func (c *Controller) emitServicePhases(now uint64, r *mem.Request, loc addrmap.Loc, d dram.AccessDetail, p dram.Params) {
	if now > r.Arrive {
		c.lc.Emit(lcEvent(obs.KQueued, r.Arrive, now, r, loc))
	}
	iss := lcEvent(obs.KIssue, now, now, r, loc)
	iss.Outcome = d.Outcome.String()
	c.lc.Emit(iss)
	t := d.Start
	if d.Outcome == dram.Conflict {
		c.lc.Emit(lcEvent(obs.KPrecharge, t, t+p.TRP, r, loc))
		t += p.TRP
	}
	if d.Outcome != dram.Hit {
		c.lc.Emit(lcEvent(obs.KActivate, t, t+p.TRCD, r, loc))
		t += p.TRCD
	}
	c.lc.Emit(lcEvent(obs.KCAS, t, t+p.CL, r, loc))
	c.lc.Emit(lcEvent(obs.KData, d.DataStart, d.Done, r, loc))
}

// armRetry schedules a dispatch attempt at the earliest cycle any queued
// request's bank becomes ready.
func (c *Controller) armRetry(now uint64, cc *channelCtl) {
	if cc.retryArmed || len(cc.queue) == 0 {
		return
	}
	wake := ^uint64(0)
	for _, e := range cc.queue {
		if r := cc.dev.BankReadyAt(e.loc.Chip, e.loc.Bank); r < wake {
			wake = r
		}
	}
	if wake <= now {
		wake = now + 1
	}
	cc.retryArmed = true
	c.q.ScheduleHandler(wake, &cc.retry)
}

// pick returns the index of the highest-priority startable queued entry
// under the configured policy, or -1 when no queued request's bank is ready.
// Two overrides apply to every policy: when the queue is nearly full, the
// oldest startable entry is served to prevent write starvation from
// deadlocking the hierarchy; and AgeBased promotes the oldest entry past the
// configured outstanding threshold.
func (c *Controller) pick(now uint64, cc *channelCtl) int {
	if c.cfg.Policy == FCFS {
		return c.pickFCFS(now, cc)
	}
	oldestOnly := len(cc.queue) >= c.cfg.QueueDepth*3/4 ||
		(c.cfg.Policy == AgeBased && len(cc.queue)+cc.inFlight > c.cfg.AgeThreshold)
	best := -1
	for i := range cc.queue {
		if cc.dev.BankReadyAt(cc.queue[i].loc.Chip, cc.queue[i].loc.Bank) > now {
			continue
		}
		switch {
		case best < 0:
			best = i
		case oldestOnly:
			if cc.queue[i].seq < cc.queue[best].seq {
				best = i
			}
		case c.better(cc.queue[i], cc.queue[best], cc.dev):
			best = i
		}
	}
	return best
}

// pickFCFS implements the paper's reference point: strict arrival order with
// reads bypassing writes. The oldest read (or, with no reads queued, the
// oldest write) is the only dispatch candidate — if its bank is busy, the
// channel waits. This head-of-line blocking is precisely what the smarter
// policies remove.
func (c *Controller) pickFCFS(now uint64, cc *channelCtl) int {
	best := -1
	if len(cc.queue) < c.cfg.QueueDepth*3/4 { // starvation guard off
		for i := range cc.queue {
			if !cc.queue[i].req.IsRead() {
				continue
			}
			if best < 0 || cc.queue[i].seq < cc.queue[best].seq {
				best = i
			}
		}
	}
	if best < 0 { // no reads (or guard active): strict oldest overall
		for i := range cc.queue {
			if best < 0 || cc.queue[i].seq < cc.queue[best].seq {
				best = i
			}
		}
	}
	if best >= 0 && cc.dev.BankReadyAt(cc.queue[best].loc.Chip, cc.queue[best].loc.Bank) > now {
		return -1
	}
	return best
}

// better reports whether a should be served before b. The policy chains
// follow Section 3 of the paper: thread-aware criteria rank below hit-first
// and read-first ("a read hit always gets a higher priority than a read miss
// even if the hit is generated by a thread with more pending requests"), and
// arrival order breaks remaining ties.
func (c *Controller) better(a, b *entry, dev *dram.Channel) bool {
	if c.cfg.ThreadAwareFirst {
		if ta, decided := c.threadAware(a, b); decided {
			return ta
		}
	}
	if c.cfg.Policy != FCFS {
		ah := dev.Classify(a.loc.Chip, a.loc.Bank, a.loc.Row) == dram.Hit
		bh := dev.Classify(b.loc.Chip, b.loc.Bank, b.loc.Row) == dram.Hit
		if ah != bh {
			return ah
		}
	}
	if ar, br := a.req.IsRead(), b.req.IsRead(); ar != br {
		return ar // read-first, including under FCFS (read bypass)
	}
	if !c.cfg.ThreadAwareFirst {
		if ta, decided := c.threadAware(a, b); decided {
			return ta
		}
	}
	return a.seq < b.seq
}

// threadAware applies the policy's thread-aware criterion; decided is false
// when the policy has none or the requests tie.
func (c *Controller) threadAware(a, b *entry) (better, decided bool) {
	switch c.cfg.Policy {
	case RequestBased:
		if ao, bo := c.threadKey(a), c.threadKey(b); ao != bo {
			return ao < bo, true // fewest pending requests first
		}
	case ROBBased:
		if av, bv := a.req.State.ROBOccupancy, b.req.State.ROBOccupancy; av != bv {
			return av > bv, true // most ROB entries first
		}
	case IQBased:
		if av, bv := a.req.State.IQOccupancy, b.req.State.IQOccupancy; av != bv {
			return av > bv, true // most integer IQ entries first
		}
	case CriticalityBased:
		if ac, bc := a.req.Critical, b.req.Critical; ac != bc {
			return ac, true // the request the processor stalls on first
		}
	}
	return false, false
}

// threadKey is the request-based scheme's sort key: the originating thread's
// live pending count. Writebacks have no thread and sort last among misses.
func (c *Controller) threadKey(e *entry) int {
	t := e.req.Thread
	if t < 0 || t >= len(c.outstanding) {
		return int(^uint(0) >> 1) // max int
	}
	return c.outstanding[t]
}

// FinishStats closes the concurrency accounting interval at now: the
// time-weighted histograms advance from the last state change in one step.
// The outstanding-request picture is constant between state changes, so
// charging (lastChange, now] here and (now, nextChange] later puts every cycle
// in the bucket a cycle-by-cycle run would. The run loop settles at the two
// cycles a Result reads the histograms as of: the warmup transition and the
// close-out.
func (c *Controller) FinishStats(now uint64) { c.snapshot(now) }

// RowBufferStats sums row-buffer outcomes over all channels.
func (c *Controller) RowBufferStats() (hits, closed, conflicts uint64) {
	for _, cc := range c.channels {
		hits += cc.dev.Stats.Hits
		closed += cc.dev.Stats.Closed
		conflicts += cc.dev.Stats.Conflicts
	}
	return
}

// RowBufferMissRate is the system-wide row-buffer miss rate.
func (c *Controller) RowBufferMissRate() float64 {
	h, cl, co := c.RowBufferStats()
	total := h + cl + co
	if total == 0 {
		return 0
	}
	return float64(cl+co) / float64(total)
}
