package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

// The packed line layout (one slab a level, tag and flags in one word of the
// bytes the geometry needs, each set's ways most recently used first) against
// a model that has none of it: a map from set index to that set's resident
// lines in recency order, least recently used first, indexed by plain
// division, with addresses wrapping at the top of the address space.

// addrSpace is one past the highest address; the model wraps there.
const addrSpace = uint64(1) << mem.AddrBits

type refLine struct {
	la    uint64
	dirty bool
}

type refModel struct {
	cfg        Config
	nsets      uint64
	sets       map[uint64][]refLine // least recently used first
	stats      Stats
	writebacks []uint64
	evicted    []uint64
}

func (m *refModel) set(la uint64) uint64 { return la / uint64(m.cfg.LineBytes) % m.nsets }

func (m *refModel) find(la uint64) int {
	return slices.IndexFunc(m.sets[m.set(la)], func(r refLine) bool { return r.la == la })
}

// touch makes the line at position i of la's set the most recently used and
// returns it.
func (m *refModel) touch(la uint64, i int) *refLine {
	s := m.sets[m.set(la)]
	r := s[i]
	s = append(append(s[:i:i], s[i+1:]...), r)
	m.sets[m.set(la)] = s
	return &s[len(s)-1]
}

func (m *refModel) install(r refLine) {
	s := m.sets[m.set(r.la)]
	if len(s) == m.cfg.Assoc {
		if s[0].dirty {
			m.stats.Writebacks++
			m.writebacks = append(m.writebacks, s[0].la)
		}
		m.evicted = append(m.evicted, s[0].la)
		s = s[1:]
	}
	m.sets[m.set(r.la)] = append(s[:len(s):len(s)], r)
}

// access is ReadLine, Probe (demand reads) and Store; it reports a hit.
func (m *refModel) access(la uint64, store bool) bool {
	m.stats.Accesses++
	if i := m.find(la); i >= 0 {
		if r := m.touch(la, i); store {
			r.dirty = true
		}
		return true
	}
	m.stats.Misses++
	m.install(refLine{la: la, dirty: store})
	return false
}

// writeLine is a writeback from above: it dirties a resident line or installs
// the whole line, with no fetch.
func (m *refModel) writeLine(la uint64) {
	m.stats.Accesses++
	if i := m.find(la); i >= 0 {
		m.touch(la, i).dirty = true
		return
	}
	m.install(refLine{la: la, dirty: true})
}

// logLower is a fixed-latency lower level that records writeback addresses.
type logLower struct {
	*FixedLatency
	writes []uint64
}

func (w *logLower) WriteLine(_ uint64, addr uint64, _ Meta) bool {
	w.writes = append(w.writes, addr)
	return true
}

// sameResidents checks that the level holds exactly the model's lines, with
// the model's flags, each set in the model's recency order.
func sameResidents(t *testing.T, l *Level, m *refModel, op int) {
	t.Helper()
	want := 0
	for _, s := range m.sets {
		want += len(s)
		for j, r := range s {
			set, i := l.lookup(r.la)
			if i < 0 {
				t.Fatalf("op %d: line %#x is in the model but not the level", op, r.la)
			}
			if i != len(s)-1-j {
				t.Fatalf("op %d: line %#x is way %d of its set, the model has it %d from the front", op, r.la, i, len(s)-1-j)
			}
			w := l.word(set + uint64(i))
			if dirty := w&lineDirty != 0; dirty != r.dirty {
				t.Fatalf("op %d: line %#x is dirty=%v, model says %v", op, r.la, dirty, r.dirty)
			}
		}
	}
	if got := validLines(l); got != want {
		t.Fatalf("op %d: %d valid lines in the slab, %d in the model", op, got, want)
	}
}

func validLines(l *Level) (n int) {
	for i := range l.nsets * l.assoc {
		n += int(l.word(i) & lineValid)
	}
	return n
}

// matchModel runs ops seeded accesses through a level of cfg and through the
// model, checking after each that they agree, and returns the model. The
// addresses fall on every set, a few times their capacity in lines, so sets
// overflow and lines come back; some runs of consecutive lines walk across
// sets. Past 1,024 sets a window of 64 sets spread from the first to the last
// stands for them all, so that a stream still revisits its lines. With top,
// the span ends at the top of the address space, where tags are widest; one
// access in eight also sets bits above it, which the level drops.
func matchModel(t *testing.T, cfg Config, top bool, seed int64, ops int) *refModel {
	t.Helper()
	var q event.Queue
	lower := &logLower{FixedLatency: NewFixedLatency(&q, 10)}
	l, err := New(&q, cfg, lower)
	if err != nil {
		t.Fatal(err)
	}
	lb := uint64(cfg.LineBytes)
	nsets := uint64(cfg.SizeBytes) / lb / uint64(cfg.Assoc)
	m := &refModel{cfg: cfg, nsets: nsets, sets: map[uint64][]refLine{}}

	rng := rand.New(rand.NewSource(seed))
	window := nsets
	if nsets > 1024 {
		window = 64
	}
	rows := 4 * uint64(cfg.Assoc)
	span := rows * window
	var base, last uint64
	if top {
		base = addrSpace - rows*nsets*lb
	}
	now := uint64(0)
	for op := 0; op < ops; op++ {
		line := rng.Uint64() % span
		if rng.Intn(3) == 0 {
			line = (last + 1) % span
		}
		last = line
		n := line/window*nsets + line%window*(nsets-1)/max(window-1, 1)
		addr := base + n*lb + rng.Uint64()%lb
		if rng.Intn(8) == 0 {
			addr |= rng.Uint64() << mem.AddrBits
		}
		la := addr % addrSpace &^ (lb - 1)

		m.evicted = m.evicted[:0]
		filled := true
		switch kind := rng.Intn(8); {
		case kind < 3:
			wantHit, misses := m.access(la, false), l.Stats.Misses
			filled = false
			if !l.ReadLine(now, addr, Meta{}, event.FillFunc(func(uint64) { filled = true })) {
				t.Fatalf("op %d: ReadLine(%#x) rejected with nothing in flight", op, addr)
			}
			if hit := l.Stats.Misses == misses; hit != wantHit {
				t.Fatalf("op %d: ReadLine(%#x) hit=%v, model hit=%v", op, addr, hit, wantHit)
			}
		case kind < 5:
			wantHit := m.access(la, false)
			hit, accepted := l.Probe(now, addr, Meta{}, nil)
			if hit != wantHit || !accepted {
				t.Fatalf("op %d: Probe(%#x) = (hit %v, accepted %v), model hit %v", op, addr, hit, accepted, wantHit)
			}
		case kind < 7:
			m.access(la, true)
			if !l.Store(now, addr, Meta{}) {
				t.Fatalf("op %d: Store(%#x) rejected with nothing in flight", op, addr)
			}
		default:
			m.writeLine(la)
			l.WriteLine(now, addr, Meta{})
		}
		q.RunUntil(now + 100) // every fill this access started has landed
		now += 100
		if !filled {
			t.Fatalf("op %d: ReadLine(%#x) never completed", op, addr)
		}
		if l.Stats != m.stats {
			t.Fatalf("op %d (%#x): stats %+v, model %+v", op, addr, l.Stats, m.stats)
		}
		if !slices.Equal(lower.writes, m.writebacks) {
			t.Fatalf("op %d (%#x): writebacks diverge\nlevel: %#x\nmodel: %#x", op, addr, tail(lower.writes), tail(m.writebacks))
		}
		if !l.Contains(addr) || m.find(la) < 0 {
			t.Fatalf("op %d: %#x resident=%v after its own access, model %v", op, addr, l.Contains(addr), m.find(la) >= 0)
		}
		for _, v := range m.evicted {
			if m.find(v) < 0 && l.Contains(v) {
				t.Fatalf("op %d (%#x): the model evicted %#x, the level kept it", op, addr, v)
			}
		}
		if op%257 == 0 {
			sameResidents(t, l, m, op)
		}
	}
	sameResidents(t, l, m, -1)
	return m
}

func TestLevelMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct {
		name                   string
		size, assoc, lineBytes int
		top                    bool // addresses from the top of the address space
		wb                     uint64
	}{
		{"8 sets 2-way", 1024, 2, 64, false, 6},
		{"512 sets 3-way", 96 << 10, 3, 64, false, 5},
		{"768 sets 2-way", 96 << 10, 2, 64, false, 5},
		{"one set 4-way", 256, 4, 64, false, 6},
		{"one set of 8-byte lines, top of memory", 32, 4, 8, true, 6},
		{"3 sets of 128-byte lines, top of memory", 384 * 2, 2, 128, true, 6},
		{"Table 1 L1, top of memory", 64 << 10, 2, 64, true, 5},
		{"Table 1 L2, top of memory", 512 << 10, 2, 64, true, 4},
		{"Table 1 L3, top of memory", 4 << 20, 4, 64, true, 4},
		{"widest words: one set of 1-byte lines, top of memory", 4, 4, 1, true, 7},
	} {
		t.Run(g.name, func(t *testing.T) {
			cfg := Config{Name: "L", SizeBytes: g.size, Assoc: g.assoc, LineBytes: g.lineBytes, Latency: 1, MSHRs: 4}
			if l, _ := New(&event.Queue{}, cfg, nil); l.wb != g.wb {
				t.Fatalf("%d-byte words, want %d", l.wb, g.wb)
			}
			m := matchModel(t, cfg, g.top, 18, 20_000)
			if m.stats.Writebacks == 0 || m.stats.Misses == 0 || m.stats.Misses == m.stats.Accesses {
				t.Fatalf("stream exercised too little: %+v", m.stats)
			}
		})
	}
}

// FuzzLevelMatchesReferenceModel draws the geometry too: up to 2,048 sets of
// up to eight ways of lines from 1 to 128 bytes. The seed's bit 1 turns on
// addresses from the top of the address space.
func FuzzLevelMatchesReferenceModel(f *testing.F) {
	f.Add(uint16(8), uint8(2), uint8(6), int64(1))
	f.Add(uint16(0), uint8(3), uint8(0), int64(3))
	f.Add(uint16(767), uint8(1), uint8(7), int64(2))
	f.Fuzz(func(t *testing.T, sets uint16, assoc, lineLog uint8, seed int64) {
		nsets, ways, lineBytes := 1+int(sets)%2048, 1+int(assoc)%8, 1<<(lineLog%8)
		cfg := Config{Name: "L", SizeBytes: nsets * ways * lineBytes, Assoc: ways, LineBytes: lineBytes, Latency: 1, MSHRs: 4}
		matchModel(t, cfg, seed&2 != 0, seed, 2_000)
	})
}

// The address space ends at bit mem.AddrBits: an address with a bit set above
// it is the same line, hit, merged into and written back as its low bits.
func TestAddressesWrapAtAddrBits(t *testing.T) {
	var q event.Queue
	lower := &logLower{FixedLatency: NewFixedLatency(&q, 10)}
	l, err := New(&q, smallCfg("L"), lower)
	if err != nil {
		t.Fatal(err)
	}
	const addr, high = 0x5_1234_5678, 0x5_1234_5678 | 1<<50
	l.ReadLine(0, addr, Meta{}, nil)
	l.ReadLine(0, high, Meta{}, nil)
	q.RunUntil(100)
	if l.Stats.Merged != 1 || lower.Reads != 1 {
		t.Fatalf("merged %d, lower reads %d: the two addresses are not one line", l.Stats.Merged, lower.Reads)
	}
	if hit, _ := l.Probe(100, high, Meta{}, nil); !hit || !l.Contains(addr) {
		t.Fatal("the line filled for one address misses for the other")
	}
	l.Store(100, high, Meta{})
	for i := uint64(1); i <= 2; i++ { // two more lines of its set evict it
		l.WriteLine(100, addr+i*512, Meta{})
	}
	if want := []uint64{addr &^ 63}; !slices.Equal(lower.writes, want) {
		t.Fatalf("writebacks %#x, want %#x", lower.writes, want)
	}
}

func tail(a []uint64) []uint64 { return a[max(0, len(a)-4):] }

// levelFrame saves l on its own; loadLevel restores a frame into l.
func levelFrame(t *testing.T, l *Level) []byte {
	t.Helper()
	w := &snap.Writer{}
	if err := l.Snap(snap.Saving(w), nil); err != nil {
		t.Fatal(err)
	}
	return w.Frame("LVLT", 1)
}

func loadLevel(l *Level, frame []byte) error {
	r, err := snap.NewReader(frame, "LVLT", 1)
	if err != nil {
		return err
	}
	if err := l.Snap(snap.Loading(r), nil); err != nil {
		return err
	}
	r.Done()
	return r.Err()
}

// churn runs a seeded access stream to completion, leaving no miss in flight.
func churn(l *Level, q *event.Queue, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		now := uint64(i) * 100
		addr := rng.Uint64() % (8 * uint64(l.cfg.SizeBytes))
		if rng.Intn(2) == 0 {
			l.Store(now, addr, Meta{})
		} else {
			l.ReadLine(now, addr, Meta{}, nil)
		}
		q.RunUntil(now + 99)
	}
}

// A load clears the slab before it places the frame's lines, so restoring
// into a level that has run gives the machine restoring into a fresh one
// gives: the same bytes when saved again, the same slab word for word.
func TestRestoreIntoUsedLevel(t *testing.T) {
	cfg := Config{Name: "L", SizeBytes: 96 << 10, Assoc: 3, LineBytes: 64, Latency: 1, MSHRs: 4}
	build := func(seed int64, ops int) *Level {
		q := &event.Queue{}
		l, err := New(q, cfg, NewFixedLatency(q, 10))
		if err != nil {
			t.Fatal(err)
		}
		churn(l, q, seed, ops)
		return l
	}
	src := build(1, 400) // touches a fraction of the 1,536 lines
	frame := levelFrame(t, src)
	slots := int(src.nsets * src.assoc)
	t.Logf("%d valid lines of %d: a %d-byte frame", validLines(src), slots, len(frame))
	if len(frame) > 4*slots {
		t.Fatalf("a %d-byte frame for %d valid lines of %d: it is sized by the capacity", len(frame), validLines(src), slots)
	}
	fresh, used := build(0, 0), build(2, 5000)
	for name, l := range map[string]*Level{"fresh": fresh, "used": used} {
		if err := loadLevel(l, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := levelFrame(t, l); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-saved frame differs (%d vs %d bytes)", name, len(again), len(frame))
		}
		if !reflect.DeepEqual(l.lines, src.lines) || l.Stats != src.Stats {
			t.Fatalf("%s: restored level differs from the one saved", name)
		}
	}
}

// The line section's own defences (the sticky reader has the rest): a bitmap
// bit past the slab, a listed line that is not valid, a bitmap that lists more
// lines than the payload holds, a word with bits above the level's word width,
// a set the hit and install paths could not have left: a valid way behind an
// empty one (the victim is the last way, so the frame would change which line
// is evicted), or one tag in two ways; and a miss whose address is off a line
// boundary or past the address space.
func TestLineSectionRejects(t *testing.T) {
	cfg := Config{Name: "L", SizeBytes: 12 * 64, Assoc: 3, LineBytes: 64, Latency: 1, MSHRs: 1}
	var q event.Queue
	empty, err := New(&q, cfg, NewFixedLatency(&q, 10))
	if err != nil {
		t.Fatal(err)
	}
	// An empty 12-line level's payload ends: bitmap length (8), the one bitmap
	// word, the MSHR count (0). Valid lines go between the last two.
	frame := levelFrame(t, empty)
	payload := frame[5 : len(frame)-4]
	head, bitmapAt := payload[:len(payload)-9], len(payload)-9
	if payload[bitmapAt-1] != 8 || !bytes.Equal(payload[bitmapAt:], make([]byte, 9)) {
		t.Fatalf("an empty level's section no longer ends in its bitmap and MSHR count: % x", payload[bitmapAt-1:])
	}
	// seal frames a section of this head, bitmap word and varints after it;
	// craft keeps the empty level's head.
	seal := func(head []byte, bitmap uint64, rest ...uint64) []byte {
		w := &snap.Writer{}
		for _, b := range binary.LittleEndian.AppendUint64(append([]byte(nil), head...), bitmap) {
			w.U8(b)
		}
		for _, x := range rest {
			w.U64(x)
		}
		return w.Frame("LVLT", 1)
	}
	craft := func(bitmap uint64, rest ...uint64) []byte { return seal(head, bitmap, rest...) }
	line := func(tag uint64) uint64 { return tag<<flagBits | lineValid }
	const noMSHRs = 0
	// Four sets of 64-byte lines leave a 40-bit tag: with the flags, six bytes.
	const widest = 1<<40 - 1
	if empty.wb != 6 {
		t.Fatalf("%d-byte words, want 6", empty.wb)
	}

	// Slots 3 and 4 are ways 0 and 1 of set 1, slot 9 way 0 of set 3.
	if err := loadLevel(empty, craft(1<<3|1<<4|1<<9, line(7), line(widest), line(9)|lineDirty, noMSHRs)); err != nil {
		t.Fatalf("a well-formed three-line section: %v", err)
	}
	if empty.word(3) != line(7) || empty.word(4) != line(widest) || empty.word(5) != 0 || empty.word(9) != line(9)|lineDirty {
		t.Fatal("the three listed lines did not land in slots 3, 4 and 9")
	}
	// mshrAt lists no lines and one clean miss on la with no waiters.
	mshrAt := func(la uint64) []byte { return craft(0, 1, la, 0, 0, 0, 0, 0, 0) }
	if err := loadLevel(empty, mshrAt(64)); err != nil || empty.mshrFor(64) == nil {
		t.Fatalf("a well-formed one-miss section: %v", err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bit past the slab", craft(1<<12, line(7), noMSHRs), snap.ErrCorrupt},
		{"listed line lacks the valid flag", craft(1<<3, 7<<flagBits|lineDirty, noMSHRs), snap.ErrCorrupt},
		{"a word wider than six bytes", craft(1<<3, line(1<<46), noMSHRs), snap.ErrCorrupt},
		{"two lines listed, one present", craft(1<<3|1<<4, line(7)), snap.ErrTruncated},
		{"a valid way behind an empty one", craft(1<<4, line(7), noMSHRs), snap.ErrCorrupt},
		{"one tag in two ways of a set", craft(1<<3|1<<4, line(7), line(7)|lineDirty, noMSHRs), snap.ErrCorrupt},
		{"a miss past the address space", mshrAt(addrSpace + 64), snap.ErrCorrupt},
		{"a miss off a line boundary", mshrAt(64 + 8), snap.ErrCorrupt},
	} {
		if err := loadLevel(empty, tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
