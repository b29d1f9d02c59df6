package workload

import (
	"math"
	"math/rand"
	"testing"
)

// probabilities lists what an application's generator compares draws against,
// by the float expressions the generator was first written in: the inputs
// newThresholds hands to thresh, stated a second time.
func probabilities(a App) []float64 {
	cold := 1 - a.HotFrac - a.StreamFrac
	ps := []float64{
		a.LoadFrac, a.LoadFrac + a.StoreFrac, a.LoadFrac + a.StoreFrac + a.BranchFrac,
		a.MispredictRate, a.TakenRate, a.FPFrac, a.LongLatFrac,
		a.IndepFrac, a.Dep2Frac, 1 - 1/a.MeanDep, a.ChaseFrac, a.JumpFrac,
		a.HotFrac, a.HotFrac + a.StreamFrac, 1 - cold,
	}
	if duty := a.BurstDuty; duty > 0 && duty < 1 && cold > 0 {
		blen := float64(a.BurstLen)
		if blen <= 0 {
			blen = 300
		}
		eff := cold / duty
		if max := 1 - a.StreamFrac; eff > max {
			eff = max
		}
		ps = append(ps, 1-eff, 1/blen, duty/((1-duty)*blen))
	}
	return ps
}

func catalogProbabilities(t testing.TB) []float64 {
	seen := map[float64]bool{}
	var ps []float64
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probabilities(a) {
			if !seen[p] {
				seen[p] = true
				ps = append(ps, p)
			}
		}
	}
	return ps
}

// checkThresh is the claim the generators rest on: for a draw rand.Float64
// would keep, comparing the float it makes against p and comparing the draw
// against th = thresh(p) are the same test.
func checkThresh(t *testing.T, p float64, th, x uint64) {
	x &= 1<<63 - 1
	if x >= one {
		return // converts to 1.0: redrawn, never compared
	}
	if float, integer := float64(int64(x))/(1<<63) < p, x < th; float != integer {
		t.Fatalf("p = %v (thresh %d), draw %d: float compare says %v, integer compare %v", p, th, x, float, integer)
	}
}

func TestThreshIsTheFloatCompare(t *testing.T) {
	if got := thresh(1); got != one {
		t.Fatalf("thresh(1) = %d, the constant one is %d", got, uint64(one))
	}
	if f := float64(int64(one-1)) / (1 << 63); f >= 1 {
		t.Fatalf("draw one-1 converts to %v, want below 1", f)
	}
	ps := append(catalogProbabilities(t),
		0, 1, 1e-300, 1-1e-16, 1.5, -0.5, 0.5, 0x1p-63, 0x1p-64,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.Inf(-1))
	words := make([]uint64, 1_000_000)
	if testing.Short() {
		words = words[:10_000]
	}
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = rng.Uint64()
	}
	for _, p := range ps {
		th := thresh(p)
		if th > one {
			t.Fatalf("thresh(%v) = %d, past one", p, th)
		}
		for d := uint64(0); d <= 4; d++ {
			checkThresh(t, p, th, th+d-2) // wraps below zero into a redraw: skipped
			checkThresh(t, p, th, one+d-2)
		}
		checkThresh(t, p, th, 0)
		checkThresh(t, p, th, 1<<63-1)
		for _, x := range words {
			checkThresh(t, p, th, x)
		}
	}
}

func FuzzThresh(f *testing.F) {
	for _, p := range catalogProbabilities(f) {
		f.Add(p, thresh(p))
		f.Add(p, thresh(p)-1)
	}
	f.Fuzz(func(t *testing.T, p float64, x uint64) {
		if math.IsNaN(p) {
			t.Skip("outside thresh's domain: App.Validate rejects it")
		}
		th := thresh(p)
		checkThresh(t, p, th, x)
		checkThresh(t, p, th, th+x%5-2)
	})
}

// runBelow against the loop it replaced, and below against the compare it
// replaced, each written out over a copy of the source: same answer, same
// register, same cursor and draw count afterwards. Redraw words (at or above
// one, either top bit) are planted just ahead of the cursor — inside runs, on
// the terminating draw, on a block's last word — and the thresholds reach from
// never through the catalog's 1-1/MeanDep range to always, which finds the cap
// on every call.
func TestRunBelowIsTheLoop(t *testing.T) {
	for _, p := range []float64{0, 0.3, 1 - 1/2.2, 1 - 1/5.5, 0.99, 0.999, 1} {
		th := thresh(p)
		own := new(source)
		own.seed(7)
		rng := rand.New(rand.NewSource(3))
		for call := 0; own.refills < 40; call++ {
			if call%3 == 0 && own.pos < srcLen {
				i := own.pos + rng.Intn(8)
				if i >= srcLen {
					i = srcLen - 1
				}
				own.buf[i] = one + uint64(rng.Intn(1<<9)) | rng.Uint64()&(1<<63)
			}
			ref := *own
			if got, want := own.below(th), ref.float64() < p; got != want || *own != ref {
				t.Fatalf("p = %v, call %d: below = %v at draw %d, the float compare gives %v at draw %d",
					p, call, got, own.draws(), want, ref.draws())
			}
			want := 0
			for ref.float64() < p && want < 63 {
				want++
			}
			if got := own.runBelow(th, 63); got != want || *own != ref {
				t.Fatalf("p = %v, call %d: runBelow = %d at draw %d (cursor %d), the loop gives %d at draw %d (cursor %d)",
					p, call, got, own.draws(), own.pos, want, ref.draws(), ref.pos)
			}
		}
	}
}
