package obs

import "sync/atomic"

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

type gauge struct {
	name string
	f    func() float64
}

// Registry holds the serving daemon's metrics for its Prometheus exposition.
// The zero Registry is usable; a nil *Registry disables everything
// (registrations return nil-safe handles).
type Registry struct {
	gauges   []*gauge
	counters []*Counter
	hists    []*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a metric read on demand at every render. Nil registries
// ignore the registration.
func (r *Registry) Gauge(name string, f func() float64) {
	if r != nil {
		r.gauges = append(r.gauges, &gauge{name: name, f: f})
	}
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

// Histogram registers (or returns the existing) named histogram; bounds must
// be ascending.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}
