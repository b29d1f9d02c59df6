package core

import "fmt"

// The measurement arithmetic of the paper's evaluation, over what a Result
// carries: weighted speedup for SMT workloads, the CPI breakdown of Section
// 4.2, and the histogram bucketing of Figures 4 and 5.

// SpeedupSum is the SMT metric of Tullsen & Brown used throughout the paper:
// the sum over threads of IPC running together divided by IPC running alone
// on the same machine.
func SpeedupSum(together, alone []float64) (float64, error) {
	if len(together) != len(alone) {
		return 0, fmt.Errorf("core: %d together IPCs vs %d alone IPCs", len(together), len(alone))
	}
	var ws float64
	for i := range together {
		if alone[i] <= 0 {
			return 0, fmt.Errorf("core: thread %d has non-positive alone IPC %v", i, alone[i])
		}
		ws += together[i] / alone[i]
	}
	return ws, nil
}

// Breakdown is an application's CPI split across the hierarchy, computed
// exactly as in Section 4.2 of the paper from four runs:
//
//	CPIoverall — realistic memory system,
//	CPIpL3     — infinitely large L3,
//	CPIpL2     — infinitely large L2,
//	CPIproc    — infinitely large L1s.
type Breakdown struct {
	Proc float64 // processor core + L1
	L2   float64 // L2 accesses
	L3   float64 // L3 accesses
	Mem  float64 // main memory accesses
}

// NewBreakdown applies the paper's subtraction. Negative components are
// clamped to zero: they arise from statistical noise between runs (the paper
// has the same exposure; its clips are samples too).
func NewBreakdown(overall, perfectL3, perfectL2, proc float64) Breakdown {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	return Breakdown{
		Proc: clamp(proc),
		L2:   clamp(perfectL2 - proc),
		L3:   clamp(perfectL3 - perfectL2),
		Mem:  clamp(overall - perfectL3),
	}
}

// Total is the reassembled overall CPI.
func (b Breakdown) Total() float64 { return b.Proc + b.L2 + b.L3 + b.Mem }

// Bucket is one range of a reported histogram.
type Bucket struct {
	// Label is the presentation label, e.g. "2-4".
	Label string
	// Frac is the fraction of mass in the bucket.
	Frac float64
}

// Bucketize groups hist[lo..] into the ranges ending at each edge
// (inclusive), with a final open bucket for everything beyond the last edge.
// hist[i] is the mass at value i; index 0 is skipped (the distributions are
// conditioned on the system being busy). Fractions are of the total included
// mass; an all-zero histogram yields zero fractions.
func Bucketize(hist []uint64, edges []int) []Bucket {
	var total uint64
	for i := 1; i < len(hist); i++ {
		total += hist[i]
	}
	out := make([]Bucket, 0, len(edges)+1)
	lo := 1
	sumRange := func(lo, hi int) uint64 {
		var s uint64
		for i := lo; i <= hi && i < len(hist); i++ {
			s += hist[i]
		}
		return s
	}
	frac := func(v uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total)
	}
	for _, e := range edges {
		label := fmt.Sprintf("%d-%d", lo, e)
		if lo == e {
			label = fmt.Sprintf("%d", lo)
		}
		out = append(out, Bucket{Label: label, Frac: frac(sumRange(lo, e))})
		lo = e + 1
	}
	out = append(out, Bucket{Label: fmt.Sprintf(">%d", lo-1), Frac: frac(sumRange(lo, len(hist)-1))})
	return out
}
