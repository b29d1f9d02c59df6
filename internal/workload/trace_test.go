package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"smtdram/internal/mem"
)

func TestTraceRoundTrip(t *testing.T) {
	app, _ := ByName("mcf")
	var buf bytes.Buffer
	const n = 50_000
	if err := Record(app, 0, 7, n, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != n {
		t.Fatalf("replay length %d, want %d", rep.Len(), n)
	}
	// The replayed stream must match the generator exactly.
	g, _ := NewGen(app, 0, 7)
	for i := 0; i < n; i++ {
		want := g.Next()
		got := rep.Next()
		if got != want {
			t.Fatalf("instruction %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestReplayLoops(t *testing.T) {
	app, _ := ByName("gzip")
	var buf bytes.Buffer
	if err := Record(app, 0, 1, 100, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Next()
	for i := 0; i < rep.Len()-1; i++ {
		rep.Next()
	}
	if again := rep.Next(); again != first {
		t.Fatalf("loop restart mismatch: %+v vs %+v", again, first)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTATRACE"),
		"header only": append([]byte{}, traceMagic[:]...),
		"truncated":   append(append([]byte{}, traceMagic[:]...), 0x01),
	}
	for name, data := range cases {
		if _, err := NewReplay(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: error = %v, want ErrBadTrace", name, err)
		}
	}
}

// rawRecord encodes one IntOp trace record with arbitrary field values, as a
// foreign converter could.
func rawRecord(lat, dep1, dep2 uint64) []byte {
	b := append([]byte{}, traceMagic[:]...)
	for _, v := range []uint64{uint64(IntOp), 0, lat, dep1, dep2} {
		b = binary.AppendUvarint(b, v)
	}
	return binary.AppendVarint(b, 4) // pcDelta
}

// The widest values an Instr holds round-trip; one past them is a malformed
// trace, not a silently truncated latency or dependence.
func TestReplayRejectsFieldsThatDoNotFit(t *testing.T) {
	widest := Instr{Kind: IntOp, PC: 4, Lat: math.MaxUint32, Dep1: math.MaxInt16, Dep2: math.MaxInt16}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(widest); err != nil || tw.Flush() != nil {
		t.Fatal("write failed")
	}
	if !bytes.Equal(buf.Bytes(), rawRecord(math.MaxUint32, math.MaxInt16, math.MaxInt16)) {
		t.Fatal("rawRecord does not encode what TraceWriter writes")
	}
	rep, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Next(); got != widest {
		t.Fatalf("widest record came back as %+v", got)
	}
	for name, data := range map[string][]byte{
		"lat":         rawRecord(math.MaxUint32+1, 1, 1),
		"dep1":        rawRecord(1, math.MaxInt16+1, 1),
		"dep2":        rawRecord(1, 1, math.MaxInt16+1),
		"dep1 = -1":   rawRecord(1, math.MaxUint64, 0),
		"lat = 1<<40": rawRecord(1<<40, 0, 0),
	} {
		if _, err := NewReplay(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s out of range: error = %v, want ErrBadTrace", name, err)
		}
	}
}

// The address space ends at 1<<mem.AddrBits: a PC or data address at its
// last doubleword replays, one at its end is a malformed trace.
func TestReplayRejectsAddressesPastAddrBits(t *testing.T) {
	const end = uint64(1) << mem.AddrBits
	for _, tc := range []struct {
		name string
		in   Instr
		ok   bool
	}{
		{"PC below the end", Instr{Kind: IntOp, Lat: 1, PC: end - 8}, true},
		{"PC at the end", Instr{Kind: IntOp, Lat: 1, PC: end}, false},
		{"address below the end", Instr{Kind: Load, Lat: 1, PC: 4, Addr: end - 8}, true},
		{"address at the end", Instr{Kind: Store, Lat: 1, PC: 4, Addr: end}, false},
	} {
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Write(tc.in); err != nil || tw.Flush() != nil {
			t.Fatal("write failed")
		}
		rep, err := NewReplay(&buf)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && rep.Next() != tc.in:
			t.Errorf("%s: the record did not come back", tc.name)
		case !tc.ok && !errors.Is(err, ErrBadTrace):
			t.Errorf("%s: error = %v, want ErrBadTrace", tc.name, err)
		}
	}
}

func TestTraceWriterCount(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tw.Write(Instr{Kind: IntOp, Lat: 1, PC: uint64(i * 4)}); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != 5 {
		t.Fatalf("Count = %d", tw.Count())
	}
}

// Property: any well-formed instruction survives an encode/decode cycle.
func TestPropertyTraceEncoding(t *testing.T) {
	f := func(kind8 uint8, mispredict, taken bool, lat8 uint8, d1, d2 uint8, pc uint32, addr uint64) bool {
		in := Instr{
			Kind:       Kind(kind8 % 5),
			Mispredict: mispredict,
			Taken:      taken,
			Lat:        uint32(lat8%16) + 1,
			Dep1:       int16(d1 % 64),
			Dep2:       int16(d2 % 64),
			PC:         uint64(pc),
		}
		if in.Kind == Load || in.Kind == Store {
			in.Addr = addr % (1 << mem.AddrBits)
		}
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf)
		if err != nil {
			return false
		}
		if err := tw.Write(in); err != nil || tw.Flush() != nil {
			return false
		}
		rep, err := NewReplay(&buf)
		if err != nil || rep.Len() != 1 {
			return false
		}
		return rep.Next() == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCompactness(t *testing.T) {
	// The varint encoding should stay well under 16 bytes/instruction for
	// realistic streams.
	app, _ := ByName("swim")
	var buf bytes.Buffer
	const n = 20_000
	if err := Record(app, 0, 3, n, &buf); err != nil {
		t.Fatal(err)
	}
	if perInstr := float64(buf.Len()) / n; perInstr > 16 {
		t.Fatalf("trace uses %.1f bytes/instruction, want < 16", perInstr)
	}
}
