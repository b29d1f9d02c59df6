package addrmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ddrGeo(channels int) Geometry {
	return Geometry{
		Channels:        channels,
		ChipsPerChannel: 1,
		BanksPerChip:    4,
		PageBytes:       2048,
		LineBytes:       64,
	}
}

func rdramGeo() Geometry {
	return Geometry{
		Channels:        2,
		ChipsPerChannel: 4,
		BanksPerChip:    32,
		PageBytes:       2048,
		LineBytes:       64,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"ddr2", ddrGeo(2), true},
		{"rdram", rdramGeo(), true},
		{"zero channels", Geometry{0, 1, 4, 2048, 64}, false},
		{"negative banks", Geometry{2, 1, -4, 2048, 64}, false},
		{"page not multiple of line", Geometry{2, 1, 4, 2048, 96}, false},
		{"non power of two banks", Geometry{2, 1, 3, 2048, 64}, false},
		{"zero page", Geometry{2, 1, 4, 0, 64}, false},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewMapperRejectsBadGeometry(t *testing.T) {
	if _, err := NewMapper(Geometry{}, Page); err == nil {
		t.Fatal("NewMapper accepted an empty geometry")
	}
}

func TestPageMappingRoundRobin(t *testing.T) {
	g := ddrGeo(2)
	m, err := NewMapper(g, Page)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive pages must land on distinct banks, cycling through all of
	// them before reusing any, and alternate channels fastest.
	seen := map[int]bool{}
	for p := 0; p < g.TotalBanks(); p++ {
		loc := m.Map(uint64(p * g.PageBytes))
		id := g.BankID(loc)
		if seen[id] {
			t.Fatalf("page %d reused bank %d before the round completed", p, id)
		}
		seen[id] = true
		if loc.Row != 0 {
			t.Fatalf("page %d mapped to row %d, want 0", p, loc.Row)
		}
		if wantCh := p % g.Channels; loc.Channel != wantCh {
			t.Fatalf("page %d on channel %d, want %d (channel-major interleave)", p, loc.Channel, wantCh)
		}
	}
}

func TestColumnDecoding(t *testing.T) {
	m, _ := NewMapper(ddrGeo(2), Page)
	for i := 0; i < 2048/64; i++ {
		loc := m.Map(uint64(i * 64))
		if loc.Col != i {
			t.Fatalf("offset %d decoded column %d, want %d", i*64, loc.Col, i)
		}
		if loc.Row != 0 || loc.Channel != 0 {
			t.Fatalf("intra-page address escaped page: %+v", loc)
		}
	}
}

func TestXORSpreadsConflictingPages(t *testing.T) {
	// Addresses that are exactly totalBanks pages apart hit the same bank
	// under Page mapping (classic row-buffer conflict stream). XOR must
	// spread them over different banks.
	g := ddrGeo(2)
	pm, _ := NewMapper(g, Page)
	xm, _ := NewMapper(g, XOR)
	banks := g.TotalBanks()

	pageBanks := map[int]int{}
	xorBanks := map[int]int{}
	for i := 0; i < banks; i++ {
		addr := uint64(i*banks) * uint64(g.PageBytes) // stride = one full round
		pageBanks[g.BankID(pm.Map(addr))]++
		xorBanks[g.BankID(xm.Map(addr))]++
	}
	if len(pageBanks) != 1 {
		t.Fatalf("page mapping should pin the conflict stream to 1 bank, got %d", len(pageBanks))
	}
	if len(xorBanks) != banks {
		t.Fatalf("xor mapping spread conflict stream over %d banks, want %d", len(xorBanks), banks)
	}
}

func TestMapUnmapRoundTrip(t *testing.T) {
	geos := []Geometry{ddrGeo(2), ddrGeo(4), ddrGeo(8), rdramGeo()}
	schemes := []Scheme{Page, XOR}
	rng := rand.New(rand.NewSource(42))
	for _, g := range geos {
		for _, s := range schemes {
			m, err := NewMapper(g, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				addr := (rng.Uint64() % (1 << 34)) &^ uint64(g.LineBytes-1)
				loc := m.Map(addr)
				if back := m.Unmap(loc); back != addr {
					t.Fatalf("%v/%v: Unmap(Map(%#x)) = %#x", g, s, addr, back)
				}
				if loc.Channel < 0 || loc.Channel >= g.Channels ||
					loc.Chip < 0 || loc.Chip >= g.ChipsPerChannel ||
					loc.Bank < 0 || loc.Bank >= g.BanksPerChip {
					t.Fatalf("%v/%v: Map(%#x) out of range: %+v", g, s, addr, loc)
				}
			}
		}
	}
}

// Property: the XOR permutation is a bijection — two distinct line addresses
// never decode to the same location.
func TestPropertyNoCollisions(t *testing.T) {
	g := rdramGeo()
	m, _ := NewMapper(g, XOR)
	f := func(a, b uint32) bool {
		aa := uint64(a) &^ uint64(g.LineBytes-1)
		bb := uint64(b) &^ uint64(g.LineBytes-1)
		la, lb := m.Map(aa), m.Map(bb)
		if aa == bb {
			return la == lb
		}
		return la != lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Page and XOR map an address to the same row and column; only the
// bank placement differs. This is what makes XOR a pure permutation scheme.
func TestPropertySameRowColumn(t *testing.T) {
	g := ddrGeo(8)
	pm, _ := NewMapper(g, Page)
	xm, _ := NewMapper(g, XOR)
	f := func(a uint32) bool {
		addr := uint64(a) &^ uint64(g.LineBytes-1)
		lp, lx := pm.Map(addr), xm.Map(addr)
		return lp.Row == lx.Row && lp.Col == lx.Col
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBankIDRoundTrip(t *testing.T) {
	g := rdramGeo()
	for id := 0; id < g.TotalBanks(); id++ {
		loc := g.locFromBankID(id)
		if back := g.BankID(loc); back != id {
			t.Fatalf("BankID(locFromBankID(%d)) = %d", id, back)
		}
	}
}

func TestGang(t *testing.T) {
	cases := []struct {
		phys, gang, width int
		wantCh, wantWidth int
		wantErr           bool
	}{
		{2, 1, 16, 2, 16, false},
		{2, 2, 16, 1, 32, false},
		{4, 2, 16, 2, 32, false},
		{8, 4, 16, 2, 64, false},
		{8, 1, 16, 8, 16, false},
		{8, 3, 16, 0, 0, true},
		{0, 1, 16, 0, 0, true},
		{4, 0, 16, 0, 0, true},
	}
	for _, c := range cases {
		ch, w, err := Gang(c.phys, c.gang, c.width)
		if (err != nil) != c.wantErr {
			t.Errorf("Gang(%d,%d,%d) err = %v, wantErr=%v", c.phys, c.gang, c.width, err, c.wantErr)
			continue
		}
		if err == nil && (ch != c.wantCh || w != c.wantWidth) {
			t.Errorf("Gang(%d,%d,%d) = (%d,%d), want (%d,%d)", c.phys, c.gang, c.width, ch, w, c.wantCh, c.wantWidth)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if Page.String() != "page" || XOR.String() != "xor" {
		t.Fatalf("Scheme strings: %q %q", Page, XOR)
	}
	if Scheme(9).String() == "" {
		t.Fatal("unknown scheme must still print")
	}
}

func TestMapperValidate(t *testing.T) {
	g := Geometry{Channels: 2, ChipsPerChannel: 1, BanksPerChip: 4, PageBytes: 2048, LineBytes: 64}
	m, _ := NewMapper(g, XOR)
	if err := m.Validate(); err != nil {
		t.Errorf("healthy mapper rejected: %v", err)
	}
	bad := Mapper{Geo: Geometry{Channels: 3, ChipsPerChannel: 1, BanksPerChip: 4, PageBytes: 2048, LineBytes: 64}}
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two channel count accepted")
	}
}
