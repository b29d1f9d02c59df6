package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSpeedupSum(t *testing.T) {
	ws, err := SpeedupSum([]float64{1, 2}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ws, 1.5) {
		t.Fatalf("WS = %v, want 1.5", ws)
	}
	if _, err := SpeedupSum([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SpeedupSum([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero alone-IPC accepted")
	}
}

// Property: WS of n identical threads running at alone speed is exactly n.
func TestPropertyWSIdentity(t *testing.T) {
	f := func(raw []float64) bool {
		ipcs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				ipcs = append(ipcs, v)
			}
		}
		if len(ipcs) == 0 {
			return true
		}
		ws, err := SpeedupSum(ipcs, ipcs)
		return err == nil && math.Abs(ws-float64(len(ipcs))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown(5.0, 2.0, 1.5, 1.0)
	if !almost(b.Proc, 1.0) || !almost(b.L2, 0.5) || !almost(b.L3, 0.5) || !almost(b.Mem, 3.0) {
		t.Fatalf("breakdown = %+v", b)
	}
	if !almost(b.Total(), 5.0) {
		t.Fatalf("Total = %v, want 5", b.Total())
	}
}

func TestBreakdownClampsNoise(t *testing.T) {
	// perfectL2 run slightly faster than the proc run: clamp, don't go
	// negative.
	b := NewBreakdown(1.0, 1.0, 0.99, 1.0)
	if b.L2 != 0 {
		t.Fatalf("L2 = %v, want clamped 0", b.L2)
	}
}

func TestBucketize(t *testing.T) {
	hist := make([]uint64, 20)
	hist[1] = 10
	hist[3] = 10
	hist[9] = 20
	hist[19] = 10
	bs := Bucketize(hist, []int{1, 4, 8, 16})
	labels := []string{"1", "2-4", "5-8", "9-16", ">16"}
	fracs := []float64{0.2, 0.2, 0, 0.4, 0.2}
	if len(bs) != len(labels) {
		t.Fatalf("got %d buckets, want %d", len(bs), len(labels))
	}
	for i := range bs {
		if bs[i].Label != labels[i] {
			t.Errorf("bucket %d label %q, want %q", i, bs[i].Label, labels[i])
		}
		if !almost(bs[i].Frac, fracs[i]) {
			t.Errorf("bucket %q frac %v, want %v", bs[i].Label, bs[i].Frac, fracs[i])
		}
	}
}

func TestBucketizeEmpty(t *testing.T) {
	bs := Bucketize(make([]uint64, 8), []int{2, 4})
	for _, b := range bs {
		if b.Frac != 0 {
			t.Fatalf("empty histogram produced frac %v", b.Frac)
		}
	}
}

// Property: bucket fractions always sum to 1 for nonempty histograms (within
// float error) and each lies in [0,1].
func TestPropertyBucketsPartition(t *testing.T) {
	f := func(vals []uint16) bool {
		hist := make([]uint64, 33)
		var mass uint64
		for i, v := range vals {
			hist[1+i%32] += uint64(v)
			mass += uint64(v)
		}
		bs := Bucketize(hist, []int{1, 4, 8, 16})
		var sum float64
		for _, b := range bs {
			if b.Frac < 0 || b.Frac > 1 {
				return false
			}
			sum += b.Frac
		}
		if mass == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
