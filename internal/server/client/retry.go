package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// RetryPolicy makes the client ride out transient fleet weather: a
// coordinator returning 502/503 while a worker is being ejected or rejoining,
// or a connection severed mid-forward. Attach one to Client.Retry and every
// API call retries those failures with jittered exponential backoff.
// Retrying submissions is safe because the daemon keys work by configuration
// fingerprint — a duplicate POST lands on the same cache/dedup entry, not a
// second simulation. 429 (load shed) is deliberately NOT retried here: it
// carries the server's own Retry-After contract, which the load generator's
// backoff honors instead.
type RetryPolicy struct {
	// MaxAttempts caps total tries per call (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 100ms); the delay
	// before attempt n is jittered around Base·2ⁿ⁻¹, capped at MaxBackoff
	// (default 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PerAttemptTimeout bounds each individual attempt (0 leaves attempts
	// bounded only by the caller's context). A timed-out attempt counts as
	// transient and retries while the parent context is still live.
	PerAttemptTimeout time.Duration

	// retried counts attempts that were retried (Retried).
	retried atomic.Uint64
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// Retried reports how many failed attempts this policy has retried.
func (p *RetryPolicy) Retried() uint64 {
	if p == nil {
		return 0
	}
	return p.retried.Load()
}

// retryable decides whether an attempt's error is transient: gateway-layer
// 502/503/504 (a fleet mid-rebalance) or a transport failure (connection
// refused/reset, attempt timeout). Other API errors are the server meaning
// what it said.
func retryable(err error) bool {
	var api *APIError
	if errors.As(err, &api) {
		switch api.Code {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var ra *RetryAfterError
	return !errors.As(err, &ra) // anything else non-HTTP is transport-level
}

// backoff computes the jittered delay before retry i (0-based).
func (p *RetryPolicy) backoff(i int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base << i
	if d > maxB || d <= 0 {
		d = maxB
	}
	return jitter(d)
}

// jitter spreads d uniformly over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// doRetry runs one API call under the policy. With no policy attached it is
// a single attempt.
func (c *Client) doRetry(ctx context.Context, call func(ctx context.Context) error) error {
	p := c.Retry
	if p == nil {
		return call(ctx)
	}
	var err error
	for i := 0; i < p.attempts(); i++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		err = call(actx)
		cancel()
		if err == nil || !retryable(err) || ctx.Err() != nil || i == p.attempts()-1 {
			return err
		}
		p.retried.Add(1)
		select {
		case <-time.After(p.backoff(i)):
		case <-ctx.Done():
			return err
		}
	}
	return err
}
