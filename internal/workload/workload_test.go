package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCatalogComplete(t *testing.T) {
	if got := len(Names()); got != 26 {
		t.Fatalf("catalog has %d applications, want 26 (all of SPEC CPU2000)", got)
	}
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("ByName accepted an unknown app")
	}
}

func TestTable2Mixes(t *testing.T) {
	ms := Mixes()
	if len(ms) != 9 {
		t.Fatalf("got %d mixes, want 9", len(ms))
	}
	wantThreads := map[string]int{
		"2-ILP": 2, "2-MIX": 2, "2-MEM": 2,
		"4-ILP": 4, "4-MIX": 4, "4-MEM": 4,
		"8-ILP": 8, "8-MIX": 8, "8-MEM": 8,
	}
	for _, m := range ms {
		if m.Threads() != wantThreads[m.Name] {
			t.Errorf("%s has %d threads, want %d", m.Name, m.Threads(), wantThreads[m.Name])
		}
		as, err := MixApps(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(as) != m.Threads() {
			t.Fatalf("%s resolved %d apps", m.Name, len(as))
		}
	}
	// Spot-check exact Table 2 contents.
	m, err := MixByName("2-MEM")
	if err != nil || m.Apps[0] != "mcf" || m.Apps[1] != "ammp" {
		t.Fatalf("2-MEM = %v, want [mcf ammp]", m.Apps)
	}
	if _, err := MixByName("16-MEM"); err == nil {
		t.Fatal("MixByName accepted unknown mix")
	}
}

func TestMEMWorkloadsUseMEMApps(t *testing.T) {
	for _, name := range []string{"2-MEM", "4-MEM", "8-MEM"} {
		m, _ := MixByName(name)
		for _, an := range m.Apps {
			a, _ := ByName(an)
			if a.Class == ILP {
				t.Errorf("%s contains ILP app %s", name, an)
			}
		}
	}
	for _, name := range []string{"2-ILP", "4-ILP", "8-ILP"} {
		m, _ := MixByName(name)
		for _, an := range m.Apps {
			a, _ := ByName(an)
			if a.Class == MEM {
				t.Errorf("%s contains MEM app %s", name, an)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := ByName("mcf")
	g1, err := NewGen(a, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGen(a, 0, 7)
	for i := 0; i < 5000; i++ {
		x, y := g1.Next(), g2.Next()
		if x != y {
			t.Fatalf("instruction %d diverged: %+v vs %+v", i, x, y)
		}
	}
	if g1.Generated() != 5000 {
		t.Fatalf("Generated = %d", g1.Generated())
	}
}

func TestDifferentThreadsDisjointAddressSpaces(t *testing.T) {
	a, _ := ByName("swim")
	g0, _ := NewGen(a, 0, 1)
	g1, _ := NewGen(a, 1, 1)
	for i := 0; i < 2000; i++ {
		x, y := g0.Next(), g1.Next()
		if x.Addr != 0 && x.Addr>>threadAddrBits != 0 {
			t.Fatalf("thread 0 address %#x escaped its space", x.Addr)
		}
		if y.Addr != 0 && y.Addr>>threadAddrBits != 1 {
			t.Fatalf("thread 1 address %#x escaped its space", y.Addr)
		}
		if x.PC>>threadAddrBits != 0 || y.PC>>threadAddrBits != 1 {
			t.Fatal("PCs escaped thread spaces")
		}
	}
}

func TestInstructionMixMatchesModel(t *testing.T) {
	a, _ := ByName("gzip")
	g, _ := NewGen(a, 0, 3)
	const n = 200000
	var loads, stores, branches float64
	for i := 0; i < n; i++ {
		switch g.Next().Kind {
		case Load:
			loads++
		case Store:
			stores++
		case Branch:
			branches++
		}
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"loads", loads / n, a.LoadFrac},
		{"stores", stores / n, a.StoreFrac},
		{"branches", branches / n, a.BranchFrac},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("%s fraction = %.3f, want %.3f ± .01", c.name, c.got, c.want)
		}
	}
}

func TestStreamingAppWalksSequentially(t *testing.T) {
	a, _ := ByName("swim")
	g, _ := NewGen(a, 0, 11)
	// Collect stream-region addresses; they must be dominated by small
	// positive deltas within each stream.
	perStream := map[uint64][]uint64{}
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Kind != Load && in.Kind != Store {
			continue
		}
		off := in.Addr &^ (uint64(1)<<threadAddrBits - 1)
		_ = off
		if in.Addr >= streamOff && in.Addr < coldOff {
			span := uint64(a.StreamBytes) / uint64(a.Streams)
			s := (in.Addr - streamOff) / span
			perStream[s] = append(perStream[s], in.Addr)
		}
	}
	if len(perStream) != a.Streams {
		t.Fatalf("observed %d streams, want %d", len(perStream), a.Streams)
	}
	for s, addrs := range perStream {
		increasing := 0
		for i := 1; i < len(addrs); i++ {
			if addrs[i] == addrs[i-1]+uint64(a.StrideBytes) {
				increasing++
			}
		}
		if frac := float64(increasing) / float64(len(addrs)-1); frac < 0.95 {
			t.Errorf("stream %d only %.2f sequential", s, frac)
		}
	}
}

func TestPointerChaseCreatesLoadDependences(t *testing.T) {
	a, _ := ByName("mcf")
	g, _ := NewGen(a, 0, 5)
	coldLoads, chased := 0, 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Kind == Load && in.Addr >= coldOff {
			coldLoads++
			if in.Dep1 > 0 && in.Dep1 < 64 {
				chased++
			}
		}
	}
	if coldLoads == 0 {
		t.Fatal("mcf generated no cold loads")
	}
	// All loads have some dependence; the chase ensures a healthy share are
	// close dependences on the prior cold load.
	if frac := float64(chased) / float64(coldLoads); frac < 0.5 {
		t.Fatalf("only %.2f of cold loads have close dependences", frac)
	}
}

func TestHotPoolStaysSmall(t *testing.T) {
	a, _ := ByName("eon")
	g, _ := NewGen(a, 0, 9)
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.Kind != Load && in.Kind != Store {
			continue
		}
		if in.Addr >= hotOff && in.Addr < streamOff {
			if off := in.Addr - hotOff; off >= uint64(a.HotBytes) {
				t.Fatalf("hot reference %#x outside hot pool of %d bytes", off, a.HotBytes)
			}
		}
	}
}

func TestPCStaysInCodeFootprint(t *testing.T) {
	a, _ := ByName("crafty")
	g, _ := NewGen(a, 0, 13)
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if off := in.PC - g.base; off >= uint64(a.CodeBytes)+4*64 {
			t.Fatalf("PC offset %#x far outside %d-byte code footprint", off, a.CodeBytes)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	good, _ := ByName("gzip")
	bad := good
	bad.LoadFrac = 0.9
	bad.StoreFrac = 0.3
	if bad.Validate() == nil {
		t.Fatal("Validate accepted mix fractions > 1")
	}
	bad = good
	bad.HotFrac = 0.9
	bad.StreamFrac = 0.5
	if bad.Validate() == nil {
		t.Fatal("Validate accepted pool fractions > 1")
	}
	bad = good
	bad.HotFrac = 0.5
	bad.StreamFrac = 0.2
	bad.ColdBytes = 0
	if bad.Validate() == nil {
		t.Fatal("Validate accepted cold refs without a cold region")
	}
	if _, err := NewGen(bad, 0, 1); err == nil {
		t.Fatal("NewGen accepted an invalid model")
	}
}

// Every comparison with NaN is false, so a range check written as "reject if
// out of range" lets NaN through. No float field of App may be NaN, the
// probabilities stay in [0,1], and MeanDep is finite and at least 1.
func TestValidateRejectsNonNumbers(t *testing.T) {
	good, _ := ByName("mcf")
	set := func(field string, v float64) App {
		a := good
		reflect.ValueOf(&a).Elem().FieldByName(field).SetFloat(v)
		return a
	}
	typ := reflect.TypeOf(good)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Float64 {
			if set(f.Name, math.NaN()).Validate() == nil {
				t.Errorf("Validate accepted %s = NaN", f.Name)
			}
		}
	}
	for _, field := range []string{"LoadFrac", "StoreFrac", "BranchFrac", "FPFrac", "MispredictRate", "TakenRate",
		"IndepFrac", "Dep2Frac", "LongLatFrac", "HotFrac", "StreamFrac", "ChaseFrac", "JumpFrac"} {
		for _, v := range []float64{-0.01, 1.01, math.Inf(1), math.Inf(-1)} {
			if set(field, v).Validate() == nil {
				t.Errorf("Validate accepted %s = %v", field, v)
			}
		}
	}
	for _, v := range []float64{0, 0.99, -3, math.Inf(1)} {
		if set("MeanDep", v).Validate() == nil {
			t.Errorf("Validate accepted MeanDep = %v", v)
		}
	}
	if err := set("MeanDep", 1).Validate(); err != nil {
		t.Errorf("MeanDep = 1: %v", err)
	}
}

// The pipeline copies an Instr by value five times per instruction (Next,
// the peek slot, consume, the frontend entry, the uop); 32 bytes is the
// budget that copying was sized against.
func TestInstrFitsThirtyTwoBytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 32 {
		t.Fatalf("Instr is %d bytes, want <= 32", n)
	}
}

// Property: every generated instruction is well-formed — dependences point
// backwards by a bounded distance, latencies are positive, and memory ops
// carry addresses.
func TestPropertyWellFormedInstructions(t *testing.T) {
	a, _ := ByName("ammp")
	g, _ := NewGen(a, 2, 17)
	f := func(_ uint8) bool {
		in := g.Next()
		if in.Lat == 0 || in.Dep1 < 0 || in.Dep1 > 64 || in.Dep2 < 0 || in.Dep2 > 64 {
			return false
		}
		if (in.Kind == Load || in.Kind == Store) && in.Addr == 0 {
			return false
		}
		if in.Kind != Branch && (in.Mispredict || in.Taken) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndClassStrings(t *testing.T) {
	for k, want := range map[Kind]string{IntOp: "int", FPOp: "fp", Load: "load", Store: "store", Branch: "branch"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k, want)
		}
	}
	if ILP.String() != "ILP" || MEM.String() != "MEM" || MID.String() != "MID" {
		t.Fatal("Class strings wrong")
	}
	if Kind(200).String() == "" || Class(42).String() == "" {
		t.Fatal("unknown enum values must print")
	}
}

// TestNextDoesNotAllocate pins the generator hot path: after warmup, drawing
// instructions allocates nothing — Instr is returned by value and the
// generator state is all inline.
func TestNextDoesNotAllocate(t *testing.T) {
	a, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGen(a, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		g.Next() // settle any lazily built state
	}
	var sink Instr
	avg := testing.AllocsPerRun(1000, func() { sink = g.Next() })
	if avg != 0 {
		t.Fatalf("Gen.Next allocates %v/op, want 0", avg)
	}
	_ = sink
}
