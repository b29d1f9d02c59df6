package obs

// Histogram counts observations into buckets with inclusive upper bounds; an
// implicit overflow bucket catches the rest. All methods are nil-safe: a nil
// *Histogram records nothing and reads zero. A Histogram is single-writer:
// concurrent users hold their own lock, as the server's metricsMu does.
type Histogram struct {
	bounds []uint64
	counts []uint64
	n      uint64
	sum    uint64
	max    uint64
}

// NewHistogram builds an empty histogram; bounds must be ascending.
func NewHistogram(bounds []uint64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
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
