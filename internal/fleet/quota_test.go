package fleet

import (
	"testing"
	"time"
)

func testClock(start time.Time) (*time.Time, func() time.Time) {
	t := start
	return &t, func() time.Time { return t }
}

func TestQuotaTenantBuckets(t *testing.T) {
	now, clock := testClock(time.Unix(1000, 0))
	q := NewQuota(QuotaConfig{RatePerSec: 2, Burst: 4, now: clock})

	// Burst drains, then the tenant is shed with its own refill horizon.
	for i := 0; i < 4; i++ {
		if ok, _ := q.Charge("alice"); !ok {
			t.Fatalf("charge %d within burst rejected", i)
		}
	}
	ok, retry := q.Charge("alice")
	if ok {
		t.Fatal("charge beyond burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s] at 2 tokens/sec", retry)
	}

	// Tenants are independent: bob's fresh bucket admits immediately.
	if ok, _ := q.Charge("bob"); !ok {
		t.Fatal("independent tenant rejected")
	}

	// Refill: half a second buys one token at 2/sec.
	*now = now.Add(500 * time.Millisecond)
	if ok, _ := q.Charge("alice"); !ok {
		t.Fatal("refilled tenant still rejected")
	}
	if ok, _ := q.Charge("alice"); ok {
		t.Fatal("second charge after a one-token refill admitted")
	}
}

func TestQuotaDisabled(t *testing.T) {
	var q *Quota // nil quota admits everything
	if ok, _ := q.Charge("anyone"); !ok {
		t.Fatal("nil quota rejected a charge")
	}
	q = NewQuota(QuotaConfig{}) // zero config likewise
	if ok, _ := q.Charge("anyone"); !ok {
		t.Fatal("zero-config quota rejected a charge")
	}
}
