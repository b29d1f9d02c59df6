package fleet

import (
	"math"
	"sort"
	"sync"
	"time"
)

// QuotaConfig shapes per-tenant admission.
type QuotaConfig struct {
	// RatePerSec is each tenant's sustained submission rate in tokens per
	// second; <=0 disables the per-tenant buckets.
	RatePerSec float64
	// Burst is each tenant's bucket capacity (default 2×RatePerSec, min 1).
	Burst float64
	// MaxTenants bounds the bucket table (default 4096); full buckets are
	// evicted first when it overflows.
	MaxTenants int

	// now overrides the clock in tests.
	now func() time.Time
}

// Quota implements the daemon's admission hook (server.Config.Admission): a
// token bucket per tenant. It layers in front of the existing bounded queue —
// the queue still bounds total work; the quota decides whose.
type Quota struct {
	cfg QuotaConfig

	mu      sync.Mutex
	buckets map[string]*bucket
	// rejectedTenant tallies over-quota rejections for /v1/fleet.
	rejectedTenant uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuota builds a Quota; a nil receiver (or all-zero config) admits
// everything.
func NewQuota(cfg QuotaConfig) *Quota {
	if cfg.Burst <= 0 {
		cfg.Burst = math.Max(1, 2*cfg.RatePerSec)
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 4096
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Quota{cfg: cfg, buckets: map[string]*bucket{}}
}

// Charge spends one token from tenant's bucket. ok=false means the tenant is
// over quota and should retry after retryAfter — the bucket's own time to the
// next token, so each tenant gets its own honest Retry-After instead of a
// global constant.
func (q *Quota) Charge(tenant string) (ok bool, retryAfter time.Duration) {
	if q == nil || q.cfg.RatePerSec <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.now()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= q.cfg.MaxTenants {
			q.evictFullLocked(now)
		}
		b = &bucket{tokens: q.cfg.Burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens = math.Min(q.cfg.Burst, b.tokens+now.Sub(b.last).Seconds()*q.cfg.RatePerSec)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	q.rejectedTenant++
	return false, time.Duration(float64(time.Second) * (1 - b.tokens) / q.cfg.RatePerSec)
}

// evictFullLocked drops buckets already refilled to capacity — tenants a
// fresh bucket would treat identically, so forgetting them is lossless.
func (q *Quota) evictFullLocked(now time.Time) {
	for t, b := range q.buckets {
		if math.Min(q.cfg.Burst, b.tokens+now.Sub(b.last).Seconds()*q.cfg.RatePerSec) >= q.cfg.Burst {
			delete(q.buckets, t)
		}
	}
}

// QuotaStats is the quota section of /v1/fleet.
type QuotaStats struct {
	Enabled        bool     `json:"enabled"`
	RatePerSec     float64  `json:"rate_per_sec,omitempty"`
	Burst          float64  `json:"burst,omitempty"`
	Tenants        []string `json:"tenants,omitempty"`
	RejectedTenant uint64   `json:"rejected_tenant"`
}

// Snapshot reports the quota's current state.
func (q *Quota) Snapshot() QuotaStats {
	if q == nil {
		return QuotaStats{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QuotaStats{
		Enabled:        true,
		RatePerSec:     q.cfg.RatePerSec,
		Burst:          q.cfg.Burst,
		RejectedTenant: q.rejectedTenant,
	}
	for t := range q.buckets {
		st.Tenants = append(st.Tenants, t)
	}
	sort.Strings(st.Tenants)
	return st
}
