package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// GaugeFunc reads an instantaneous value; now is the current cycle, so rate
// gauges (busy fraction, events/cycle) can normalize by elapsed time.
type GaugeFunc func(now uint64) float64

// Counter is a monotonically increasing metric. All methods are nil-safe: a
// nil *Counter (from a nil Registry) is a no-op, so instrumented code can
// increment unconditionally. Increments and reads are atomic, so a serving
// daemon's worker goroutines can bump counters while /metrics renders the
// registry without a data race (histograms and gauges stay single-writer:
// concurrent users must hold their own lock, as the server's metricsMu does).
type Counter struct {
	name string
	v    atomic.Uint64
	read func() uint64 // CounterFunc: the tally lives elsewhere
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if c.read != nil {
		return c.read()
	}
	return c.v.Load()
}

// Histogram counts observations into buckets with inclusive upper bounds; an
// implicit overflow bucket catches the rest. Nil-safe like Counter.
type Histogram struct {
	name   string
	bounds []uint64
	counts []uint64
	n      uint64
	sum    uint64
	max    uint64
}

// NewHistogram builds a standalone histogram (used when no registry exists).
// bounds must be ascending.
func NewHistogram(name string, bounds []uint64) *Histogram {
	return &Histogram{name: name, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// ObserveN records the same value n times, exactly as n Observe calls would
// but in O(1) — the two-speed clock uses it to replay a skip window's worth
// of identical per-cycle observations.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.n += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observed distribution
// by linear interpolation inside the bucket that holds the target rank: ranks
// below a bucket's cumulative count are spread uniformly across [lower bound,
// upper bound). The overflow bucket interpolates toward the observed maximum,
// so p99 of a histogram whose tail escaped the last bound still reports a
// finite, data-bounded value. Returns 0 for an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum uint64
	lower := 0.0
	for i, c := range h.counts {
		if c == 0 {
			if i < len(h.bounds) {
				lower = float64(h.bounds[i])
			}
			continue
		}
		upper := float64(h.max)
		if i < len(h.bounds) {
			upper = float64(h.bounds[i])
		}
		if upper > float64(h.max) {
			upper = float64(h.max) // the data never reached the bound
		}
		if upper < lower {
			upper = lower
		}
		next := cum + c
		if rank <= float64(next) {
			frac := (rank - float64(cum)) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum = next
		lower = upper
	}
	return float64(h.max)
}

// Buckets returns the (bounds, counts) pair; counts has one extra overflow
// slot.
func (h *Histogram) Buckets() ([]uint64, []uint64) {
	if h == nil {
		return nil, nil
	}
	return h.bounds, h.counts
}

// String renders "≤b:n" pairs for humans.
func (h *Histogram) String() string {
	if h == nil || h.n == 0 {
		return "(empty)"
	}
	out := ""
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		if i < len(h.bounds) {
			out += fmt.Sprintf("≤%d:%d", h.bounds[i], c)
		} else {
			out += fmt.Sprintf(">%d:%d", h.bounds[len(h.bounds)-1], c)
		}
	}
	return out
}

type gauge struct {
	name    string
	f       GaugeFunc
	sampled bool
	series  []float64 // one value per Registry sample, sampled gauges only
}

// Metric is one (name, value) pair of a final snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Registry holds a run's metrics and samples its Sampled gauges every
// interval cycles into time series. It is single-threaded, like the
// simulator. The zero Registry is not usable; a nil *Registry is and
// disables everything (registrations return nil-safe handles).
type Registry struct {
	interval uint64
	next     uint64
	cycles   []uint64 // cycles at which samples were taken
	gauges   []*gauge
	byName   map[string]*gauge
	counters []*Counter
	hists    []*Histogram
}

// NewRegistry builds a registry sampling every interval cycles (≥ 1).
func NewRegistry(interval uint64) *Registry {
	if interval == 0 {
		interval = 1000
	}
	return &Registry{interval: interval, byName: map[string]*gauge{}}
}

// Interval returns the sampling period in cycles.
func (r *Registry) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// Gauge registers a read-on-demand metric reported only in the final
// snapshot. Nil registries ignore the registration.
func (r *Registry) Gauge(name string, f GaugeFunc) { r.addGauge(name, f, false) }

// Sampled registers a gauge that is additionally recorded as a time series
// every sampling interval.
func (r *Registry) Sampled(name string, f GaugeFunc) { r.addGauge(name, f, true) }

func (r *Registry) addGauge(name string, f GaugeFunc, sampled bool) {
	if r == nil {
		return
	}
	if g, ok := r.byName[name]; ok { // re-registration replaces the reader
		g.f = f
		g.sampled = g.sampled || sampled
		return
	}
	g := &gauge{name: name, f: f, sampled: sampled}
	r.gauges = append(r.gauges, g)
	r.byName[name] = g
}

// Counter registers (or returns the existing) named counter. A nil registry
// returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// CounterFunc registers a counter whose value is read from f: a monotonic
// tally another component already keeps (a memo's hits, a tier's misses),
// exported with counter semantics instead of being mirrored into a second
// counter. f must be safe to call from the rendering goroutine.
func (r *Registry) CounterFunc(name string, f func() uint64) {
	if r != nil {
		r.counters = append(r.counters, &Counter{name: name, read: f})
	}
}

// Histogram registers (or returns the existing) named histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	h := NewHistogram(name, bounds)
	r.hists = append(r.hists, h)
	return h
}

// MaybeSample records a sample when the interval has elapsed. The run loop
// calls this every cycle; off-interval cycles cost one comparison.
func (r *Registry) MaybeSample(now uint64) {
	if now < r.next {
		return
	}
	r.cycles = append(r.cycles, now)
	for _, g := range r.gauges {
		if g.sampled {
			g.series = append(g.series, g.f(now))
		}
	}
	r.next = now + r.interval
}

// NextSampleAt returns the cycle of the next scheduled sample (0 for nil).
// The two-speed clock never fast-forwards past it, so every sample reads the
// machine at exactly the cycle an unskipped run would.
func (r *Registry) NextSampleAt() uint64 {
	if r == nil {
		return 0
	}
	return r.next
}

// Series returns a sampled gauge's time series (shared slices; do not
// mutate). ok is false for unknown or unsampled names.
func (r *Registry) Series(name string) (cycles []uint64, values []float64, ok bool) {
	if r == nil {
		return nil, nil, false
	}
	g := r.byName[name]
	if g == nil || !g.sampled {
		return nil, nil, false
	}
	return r.cycles, g.series, true
}

// Value evaluates one gauge or counter now. ok is false for unknown names.
func (r *Registry) Value(name string, now uint64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	if g := r.byName[name]; g != nil {
		return g.f(now), true
	}
	for _, c := range r.counters {
		if c.name == name {
			return float64(c.Value()), true
		}
	}
	return 0, false
}

// Final snapshots every gauge and counter at cycle now, in registration
// order (deterministic).
func (r *Registry) Final(now uint64) []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.gauges)+len(r.counters))
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.name, Value: g.f(now)})
	}
	for _, c := range r.counters {
		out = append(out, Metric{Name: c.name, Value: float64(c.Value())})
	}
	return out
}

// metricsLine is one JSONL record of the metrics export.
type metricsLine struct {
	Type     string             `json:"type"`
	Label    string             `json:"label,omitempty"`
	Interval uint64             `json:"interval,omitempty"`
	Cycle    uint64             `json:"cycle,omitempty"`
	Values   map[string]float64 `json:"values,omitempty"`
	Name     string             `json:"name,omitempty"`
	Bounds   []uint64           `json:"bounds,omitempty"`
	Counts   []uint64           `json:"counts,omitempty"`
	Count    uint64             `json:"count,omitempty"`
	Sum      uint64             `json:"sum,omitempty"`
	Max      uint64             `json:"max,omitempty"`
}

// WriteJSONL exports the registry as JSON lines: a meta record, one sample
// record per interval (sampled gauges only), histogram records, and a final
// snapshot of every metric at cycle now. Output is deterministic: map keys
// are marshalled in sorted order and records follow registration order.
func (r *Registry) WriteJSONL(w io.Writer, label string, now uint64) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(metricsLine{Type: "meta", Label: label, Interval: r.interval, Cycle: now}); err != nil {
		return err
	}
	for i, cyc := range r.cycles {
		vals := map[string]float64{}
		for _, g := range r.gauges {
			if g.sampled {
				vals[g.name] = g.series[i]
			}
		}
		if err := enc.Encode(metricsLine{Type: "sample", Cycle: cyc, Values: vals}); err != nil {
			return err
		}
	}
	for _, h := range r.hists {
		if err := enc.Encode(metricsLine{
			Type: "hist", Name: h.name, Bounds: h.bounds, Counts: h.counts,
			Count: h.n, Sum: h.sum, Max: h.max,
		}); err != nil {
			return err
		}
	}
	vals := map[string]float64{}
	for _, m := range r.Final(now) {
		vals[m.Name] = m.Value
	}
	return enc.Encode(metricsLine{Type: "final", Cycle: now, Values: vals})
}

// Names lists every registered gauge and counter, sorted (for docs/tests).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	var out []string
	for _, g := range r.gauges {
		out = append(out, g.name)
	}
	for _, c := range r.counters {
		out = append(out, c.name)
	}
	sort.Strings(out)
	return out
}
