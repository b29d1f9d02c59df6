package faults

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseEmptySpecIsNilPlan(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", p, err)
	}
	if !p.Empty() {
		t.Fatal("nil plan must be Empty")
	}
	if NewInjector(p) != nil {
		t.Fatal("nil plan must build a nil injector")
	}
}

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("drop:rate=1e-7,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 1e-7 || p.Seed != 7 {
		t.Fatalf("rate/seed = %g/%d", p.DropRate, p.Seed)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"frobnicate:rate=1",                  // unknown clause
		"bitflip:rate=1e-6",                  // a removed clause is an unknown one
		"stuckrow:ch=0,chip=0,bank=1,row=42", // likewise
		"channel-fail:ch=1,at=100",           // likewise
		"drop:rate=abc",                      // bad float
		"drop:rate=1,oops=2",                 // unknown key
		"drop:rate",                          // not key=value
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestSpecHolesRejected: a NaN rate fails every range comparison, and a
// repeated drop clause overwrote the first one's rate; both used to reach a
// simulation — the NaN one as a plan that drops nothing yet reports faults.
func TestSpecHolesRejected(t *testing.T) {
	for _, spec := range []string{
		"drop:rate=NaN",
		"drop:rate=nan,seed=3",
		"drop:rate=0.1;drop:rate=0.2",
		"drop:rate=0.1;seed:v=5;drop:rate=0.1",
		"seed:v=3;seed:v=4",
	} {
		p, err := Parse(spec)
		if err == nil {
			err = p.Validate()
		}
		if err == nil {
			t.Errorf("%q parsed and validated as %+v, want an error", spec, p)
		}
	}
	if err := (&Plan{DropRate: math.NaN()}).Validate(); err == nil {
		t.Error("Validate accepted a NaN drop rate")
	}
}

func TestStringRoundTrips(t *testing.T) {
	p, err := Parse("drop:rate=0.25,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip changed the plan: %q -> %q", p.String(), p2.String())
	}
	if p2.Seed != 9 || p2.DropRate != 0.25 {
		t.Fatalf("round trip lost fields: %+v", p2)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Plan{DropRate: 2}).Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	ok := &Plan{DropRate: 1e-7, Seed: 3}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{DropRate: 0.1, Seed: 42}
	a, b := NewInjector(plan), NewInjector(plan)
	for i := 0; i < 10_000; i++ {
		if da, db := a.Drop(), b.Drop(); da != db {
			t.Fatalf("read %d: %v vs %v with identical seeds", i, da, db)
		}
	}
	if a.Drops != b.Drops || a.Drops == 0 {
		t.Fatalf("drops = %d vs %d", a.Drops, b.Drops)
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(&Plan{DropRate: 0.25, Seed: 1})
	const n = 100_000
	var dropped uint64
	for i := 0; i < n; i++ {
		if in.Drop() {
			dropped++
		}
	}
	if dropped != in.Drops {
		t.Fatalf("Drop returned true %d times, Drops counts %d", dropped, in.Drops)
	}
	if drop := float64(in.Drops) / n; drop < 0.23 || drop > 0.27 {
		t.Errorf("drop rate %.3f far from 0.25", drop)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Drop() {
		t.Fatal("nil injector dropped a read")
	}
	if in.Plan() != nil {
		t.Fatal("nil injector has a plan")
	}
	// A plan without a drop rate injects nothing, so it builds no injector.
	if NewInjector(&Plan{Seed: 9}) != nil {
		t.Fatal("a plan without a drop rate built an injector")
	}
}

func TestSeedChangesStream(t *testing.T) {
	mk := func(seed uint64) string {
		in := NewInjector(&Plan{DropRate: 0.5, Seed: seed})
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			if in.Drop() {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String()
	}
	if mk(1) == mk(2) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// TestParseEdgeCases covers the spec-grammar corners a hand-typed -faults
// flag actually hits: stray separators, duplicate keys within a clause,
// malformed and overflowing numbers, and empty keys.
func TestParseEdgeCases(t *testing.T) {
	// Whitespace, empty clauses, and mixed case are tolerated.
	for _, spec := range []string{
		";;drop:rate=1e-6;;",
		"  Drop : rate=1e-6  ",
		"drop:rate=1e-6;\n seed:v=5",
	} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v, want success", spec, err)
		}
	}

	for _, tc := range []struct {
		spec, wantSub string
	}{
		{"drop:rate=1e-6,rate=1e-3", "duplicate key"},
		{"seed:v=1,V=2", "duplicate key"},
		{"drop:=1e-6", "empty key"},
		{"drop:rate=", "invalid syntax"},
		{"drop:rate=1e", "invalid syntax"},
		{"seed:v=99999999999999999999", "value out of range"},
		{"drop:rate=1e-6,seed=zero", "invalid syntax"},
		{"seed:v=-3", "invalid syntax"},
		{"drop:rate=1e-6,seed=1.5", "invalid syntax"},
		{"drop:rate=0.1;drop:rate=0.2", "more than one drop clause"},
		{"bitflip:rate=1e-6", "unknown clause"},
		{"stuckrow:ch=0,row=3", "unknown clause"},
		{"channel-fail:ch=1,at=100", "unknown clause"},
	} {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.spec, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.spec, err, tc.wantSub)
		}
	}
}

// TestValidateRanges pins the range checks the CLI relies on for exit-2 flag
// validation: rates outside [0,1] must be rejected.
func TestValidateRanges(t *testing.T) {
	if err := (&Plan{DropRate: -0.1}).Validate(); err == nil {
		t.Error("negative drop rate accepted")
	}
	if err := (&Plan{DropRate: 1.1}).Validate(); err == nil {
		t.Error("drop rate above 1 accepted")
	}
	if err := (&Plan{DropRate: math.Inf(1)}).Validate(); err == nil {
		t.Error("infinite drop rate accepted")
	}
}

// TestDocsQuoteValidSpecs: every -faults '…' spec the docs and CI quote
// parses and validates, so a clause the grammar drops cannot survive in a
// copy-paste example.
func TestDocsQuoteValidSpecs(t *testing.T) {
	quoted := regexp.MustCompile(`-faults\s+'([^']*)'`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		specs := quoted.FindAllStringSubmatch(string(b), -1)
		if len(specs) == 0 {
			t.Errorf("%s quotes no -faults spec; the check would pass vacuously", doc)
		}
		for _, m := range specs {
			p, err := Parse(m[1])
			if err == nil {
				err = p.Validate()
			}
			if err == nil && p.Empty() {
				err = errors.New("the plan injects nothing")
			}
			if err != nil {
				t.Errorf("%s quotes -faults '%s': %v", doc, m[1], err)
			}
		}
	}
}
