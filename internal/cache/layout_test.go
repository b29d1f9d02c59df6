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
	"smtdram/internal/snap"
)

// The packed line layout (one slab a level, tag and flags in one word) against
// a model that has neither: a map from set index to that set's resident lines
// in recency order, indexed by plain division.

type refLine struct {
	la                uint64
	dirty, prefetched bool
}

type refModel struct {
	cfg        Config
	nsets      uint64
	sets       map[uint64][]refLine // least recently used first
	stats      Stats
	pf         prefetchStats
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

// prefetch is maybePrefetch with nothing in flight: the next line is fetched
// unless it is resident. The fill lands after the demand fill that caused it.
func (m *refModel) prefetch(la uint64) (next uint64, issued bool) {
	if !m.cfg.PrefetchNextLine {
		return 0, false
	}
	next = la + uint64(m.cfg.LineBytes)
	if m.find(next) >= 0 {
		m.pf.Dropped++
		return 0, false
	}
	m.pf.Issued++
	return next, true
}

// access is ReadLine, Probe (demand reads) and Store; it reports a hit.
func (m *refModel) access(la uint64, store bool) bool {
	m.stats.Accesses++
	if i := m.find(la); i >= 0 {
		r := m.touch(la, i)
		switch {
		case store:
			r.dirty = true
		case r.prefetched:
			r.prefetched = false
			m.pf.Useful++
			if next, ok := m.prefetch(la); ok {
				m.install(refLine{la: next, prefetched: true})
			}
		}
		return true
	}
	m.stats.Misses++
	next, ok := m.prefetch(la)
	m.install(refLine{la: la, dirty: store})
	if ok {
		m.install(refLine{la: next, prefetched: true})
	}
	return false
}

// writeLine is a writeback from above: it dirties a resident line or installs
// the whole line, with no fetch and no prefetch.
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
// the model's flags.
func sameResidents(t *testing.T, l *Level, m *refModel, op int) {
	t.Helper()
	want := 0
	for _, s := range m.sets {
		want += len(s)
		for _, r := range s {
			ln := l.lookup(r.la)
			if ln == nil {
				t.Fatalf("op %d: line %#x is in the model but not the level", op, r.la)
			}
			if dirty, pf := ln.w&lineDirty != 0, ln.w&linePrefetched != 0; dirty != r.dirty || pf != r.prefetched {
				t.Fatalf("op %d: line %#x is dirty=%v prefetched=%v, model says %v/%v", op, r.la, dirty, pf, r.dirty, r.prefetched)
			}
		}
	}
	if got := validLines(l); got != want {
		t.Fatalf("op %d: %d valid lines in the slab, %d in the model", op, got, want)
	}
}

func validLines(l *Level) (n int) {
	for i := range l.lines {
		n += int(l.lines[i].w & lineValid)
	}
	return n
}

func TestLevelMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct {
		name                   string
		size, assoc, lineBytes int
		prefetch               bool
		top                    bool // addresses from the top of the 64-bit space
	}{
		{"8 sets 2-way", 1024, 2, 64, false, false},
		{"8 sets 2-way, prefetching", 1024, 2, 64, true, false},
		{"512 sets 3-way", 96 << 10, 3, 64, false, false},
		{"768 sets 2-way, prefetching", 96 << 10, 2, 64, true, false},
		{"one set 4-way, prefetching", 256, 4, 64, true, false},
		{"widest tags: one set of 8-byte lines", 32, 4, 8, true, true},
		{"3 sets of 128-byte lines, top of memory", 384 * 2, 2, 128, false, true},
	} {
		t.Run(g.name, func(t *testing.T) {
			cfg := Config{Name: "L", SizeBytes: g.size, Assoc: g.assoc, LineBytes: g.lineBytes, Latency: 1, MSHRs: 4, PrefetchNextLine: g.prefetch}
			var q event.Queue
			lower := &logLower{FixedLatency: NewFixedLatency(&q, 10)}
			l, err := New(&q, cfg, lower)
			if err != nil {
				t.Fatal(err)
			}
			m := &refModel{cfg: cfg, nsets: uint64(g.size / g.lineBytes / g.assoc), sets: map[uint64][]refLine{}}

			// Addresses fall on a few times the capacity in lines, so sets
			// overflow and lines come back; some runs of consecutive lines give
			// the prefetcher something to be right about.
			rng := rand.New(rand.NewSource(18))
			span := uint64(4 * g.size / g.lineBytes)
			var base, last uint64
			if g.top {
				base = -span * uint64(g.lineBytes) // the last span lines below 2^64
			}
			now := uint64(0)
			for op := 0; op < 20_000; op++ {
				line := rng.Uint64() % span
				if rng.Intn(3) == 0 {
					line = (last + 1) % span
				}
				last = line
				addr := base + line*uint64(g.lineBytes) + rng.Uint64()%uint64(g.lineBytes)
				la := addr &^ uint64(g.lineBytes-1)

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
				if l.Stats != m.stats || l.Prefetch != m.pf {
					t.Fatalf("op %d (%#x): stats %+v %+v, model %+v %+v", op, addr, l.Stats, l.Prefetch, m.stats, m.pf)
				}
				if !slices.Equal(lower.writes, m.writebacks) {
					t.Fatalf("op %d (%#x): writebacks diverge\nlevel: %#x\nmodel: %#x", op, addr, tail(lower.writes), tail(m.writebacks))
				}
				if !l.Contains(addr) {
					t.Fatalf("op %d: %#x not resident after its own access", op, addr)
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
			if m.stats.Writebacks == 0 || m.stats.Misses == 0 || m.stats.Misses == m.stats.Accesses || (g.prefetch && m.pf.Useful == 0) {
				t.Fatalf("stream exercised too little: %+v %+v", m.stats, m.pf)
			}
		})
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
	cfg := Config{Name: "L", SizeBytes: 96 << 10, Assoc: 3, LineBytes: 64, Latency: 1, MSHRs: 4, PrefetchNextLine: true}
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
	t.Logf("%d valid lines of %d: a %d-byte frame", validLines(src), len(src.lines), len(frame))
	if len(frame) > 4*len(src.lines) {
		t.Fatalf("a %d-byte frame for %d valid lines of %d: it is sized by the capacity", len(frame), validLines(src), len(src.lines))
	}
	fresh, used := build(0, 0), build(2, 5000)
	for name, l := range map[string]*Level{"fresh": fresh, "used": used} {
		if err := loadLevel(l, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := levelFrame(t, l); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-saved frame differs (%d vs %d bytes)", name, len(again), len(frame))
		}
		if !reflect.DeepEqual(l.lines, src.lines) || l.tick != src.tick || l.Stats != src.Stats || l.Prefetch != src.Prefetch {
			t.Fatalf("%s: restored level differs from the one saved", name)
		}
	}
}

// The line section's own defences (the sticky reader has the rest): a bitmap
// bit past the slab, a listed line that is not valid, and a bitmap that lists
// more lines than the payload holds.
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
	// craft seals the section with this bitmap word and these varints after it.
	craft := func(bitmap uint64, rest ...uint64) []byte {
		w := &snap.Writer{}
		for _, b := range binary.LittleEndian.AppendUint64(append([]byte(nil), head...), bitmap) {
			w.U8(b)
		}
		for _, x := range rest {
			w.U64(x)
		}
		return w.Frame("LVLT", 1)
	}
	line := func(tag uint64) uint64 { return tag<<flagBits | lineValid }
	const noMSHRs = 0

	if err := loadLevel(empty, craft(1<<3|1<<11, line(7), 1, line(9)|lineDirty, 2, noMSHRs)); err != nil {
		t.Fatalf("a well-formed two-line section: %v", err)
	}
	if !empty.Contains(empty.victimAddr(1, 7)) || !empty.Contains(empty.victimAddr(3, 9)) {
		t.Fatal("the two listed lines did not land in slots 3 and 11")
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bit past the slab", craft(1<<12, line(7), 1, noMSHRs), snap.ErrCorrupt},
		{"listed line lacks the valid flag", craft(1<<3, 7<<flagBits|lineDirty, 1, noMSHRs), snap.ErrCorrupt},
		{"two lines listed, one present", craft(1<<3|1<<5, line(7), 1), snap.ErrTruncated},
	} {
		if err := loadLevel(empty, tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
