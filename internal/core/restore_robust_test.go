package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smtdram/internal/snap"
)

// A checkpoint frame's CRC seals whatever was written, so a frame can be
// perfectly valid and still lie about its contents (a bad writer, a crafted
// file in a shared -checkpoint-dir). These tests feed the restore path such
// frames: whatever the payload says, NewCheckpointedSimulator returns a
// machine or a typed snap error. It never panics and never sizes anything by
// a number it has not bounded.

const frameHead, frameTail = 5, 4 // magic + version before the payload, CRC-32C after

// reseal recomputes frame's trailing checksum in place.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-frameTail]
	binary.LittleEndian.PutUint32(frame[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return frame
}

// withIssueQueueCount returns a copy of frame whose CPU section claims count
// issue-queue entries, re-sealed. It reads the frame the way the walks do, up
// to that count: the simulator header, then the CPU section's scalars and its
// committed-store buffer.
func withIssueQueueCount(t *testing.T, frame []byte, count uint64) []byte {
	t.Helper()
	r, err := snap.NewReader(frame, string(frame[:4]), frame[4])
	if err != nil {
		t.Fatal(err)
	}
	r.Expect(sectionSim)
	_ = r.String()
	for i := 0; i < 4; i++ { // the boundary cycle and the three skip counters
		r.U64()
	}
	r.Expect(0x53435055) // cpu's section marker
	r.U64()
	r.U64()
	for i := 0; i < 7; i++ {
		r.I64()
	}
	r.Bool()
	r.Bool()
	for n := r.U64(); n > 0; n-- { // committed stores: address + cache.Meta
		r.U64()
		r.I64()
		r.Bool()
		r.I64()
		r.I64()
		r.I64()
	}
	at := len(frame) - frameTail - r.Remaining()
	old := r.U64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if old == 0 || old > 96 {
		t.Fatalf("issue-queue count reads %d: the CPU section's layout moved, update this reader", old)
	}
	end := len(frame) - frameTail - r.Remaining()
	out := append([]byte(nil), frame[:at]...)
	out = binary.AppendUvarint(out, count)
	return reseal(append(out, frame[end:]...))
}

// TestRestoreRejectsOversizedCount: the CPU section's issue-queue count used
// to size a slice directly, so a sealed frame claiming 1<<62 entries panicked
// the restore with "makeslice: len out of range".
func TestRestoreRejectsOversizedCount(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	chk, err := WarmupCheckpoint(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Checkpoint{Prefix: chk.Prefix, Now: chk.Now, Data: withIssueQueueCount(t, chk.Data, 1<<62)}
	_, err = NewCheckpointedSimulator(cfg, bad)
	if !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("frame with a 1<<62 issue-queue count: got %v, want a truncated/corrupt error", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(uint64(1)<<62)) {
		t.Fatalf("rejected for another reason than the count: %v", err)
	}
}

// edit is one step of restoreEdited's script: op 0 sets, 1 inserts and 2
// deletes the payload byte at off.
func edit(op byte, off int, val byte) []byte {
	return []byte{op, byte(off), byte(off >> 8), byte(off >> 16), val}
}

// restoreEdited is the property's body. It applies an edit script to a copy of
// frame's payload — five bytes an edit: what to do (set, insert or delete one
// byte), a 24-bit payload offset, a value — re-seals, restores the frame into
// a machine built from cfg, and fails the test unless the outcome is a
// machine or a typed snap error.
func restoreEdited(t *testing.T, cfg Config, frame, edits []byte) {
	t.Helper()
	script := edits
	payload := append([]byte(nil), frame[frameHead:len(frame)-frameTail]...)
	for ; len(edits) >= 5 && len(payload) > 0; edits = edits[5:] {
		off := (int(edits[1]) | int(edits[2])<<8 | int(edits[3])<<16) % len(payload)
		switch edits[0] % 3 {
		case 0:
			payload[off] = edits[4]
		case 1:
			payload = append(payload[:off+1], payload[off:]...)
			payload[off] = edits[4]
		case 2:
			payload = append(payload[:off], payload[off+1:]...)
		}
	}
	edited := append(append([]byte(nil), frame[:frameHead]...), payload...)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%d threads, edits % x: restore panicked: %v", len(cfg.Apps), script, p)
		}
	}()
	s, err := NewCheckpointedSimulator(cfg, &Checkpoint{Prefix: cfg.WarmupFingerprint(), Data: reseal(append(edited, 0, 0, 0, 0))})
	switch {
	case err == nil && s != nil:
	case errors.Is(err, snap.ErrTruncated), errors.Is(err, snap.ErrCorrupt),
		errors.Is(err, snap.ErrVersion), errors.Is(err, snap.ErrUnsupported):
	default:
		t.Fatalf("%d threads, edits % x: restore returned (%v, %v), want a machine or a typed snap error", len(cfg.Apps), script, s, err)
	}
}

// robustFrames are the two golden machines' configurations and frames.
func robustFrames(t testing.TB) (cfgs []Config, frames [][]byte) {
	t.Helper()
	for _, g := range goldenFrames() {
		chk, err := WarmupCheckpoint(context.Background(), g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, frames = append(cfgs, g.cfg), append(frames, chk.Data)
	}
	return cfgs, frames
}

// levelSection is where a cache level's section starts in a payload — its
// marker, then five varint counters and its writeback buffer —
// and where its line bitmap's first word is (the bitmap is 128 bytes for an
// L1, 8 KB for the L3; the valid lines it lists follow it).
type levelSection struct{ at, bitmap int }

// levelSections finds the four levels' sections and reads each head the way
// cache.Level.Snap walks it, up to the bitmap.
func levelSections(t testing.TB, payload []byte) []levelSection {
	t.Helper()
	const marker = 0x4C56454C // cache's level marker
	var secs []levelSection
	for off := 0; len(secs) < 4; {
		i := bytes.Index(payload[off:], binary.AppendUvarint(nil, marker))
		if i < 0 {
			t.Fatalf("found %d cache level sections in the frame, want the hierarchy's 4", len(secs))
		}
		at := off + i
		head, w := payload[at:min(len(payload), at+1024)], &snap.Writer{}
		for _, b := range head {
			w.U8(b)
		}
		r, err := snap.NewReader(w.Frame("LVLH", 1), "LVLH", 1)
		if err != nil {
			t.Fatal(err)
		}
		r.Expect(marker)
		r.U8()                   // the level's id
		for i := 0; i < 5; i++ { // the counters
			r.U64()
		}
		for n := r.U64(); n > 0 && r.Err() == nil; n-- { // writeback buffer: address + cache.Meta
			r.U64()
			r.I64()
			r.I64()
			r.I64()
		}
		if perfect, n := r.Bool(), r.U64(); perfect || n == 0 || n%8 != 0 || r.Err() != nil { // then the bitmap's words
			t.Fatalf("the cache level section at %d does not read as a level's head up to its bitmap (%v): update this reader", at, r.Err())
		}
		secs = append(secs, levelSection{at, at + len(head) - r.Remaining()})
		off = at + 1
	}
	return secs
}

// TestRestoreNeverPanics patches one payload byte of a valid two-thread and a
// valid eight-thread frame at a few thousand seeded (offset, value) pairs. A
// frame is mostly valid cache lines, where a wrong byte is just another tag,
// so most patches are aimed where the structure is: the CPU section at the
// head; MSHRs, controller queues, the event queue and the generators at the
// tail; and a cache level's section up to the 128th byte of its line bitmap
// (all of an L1's) — one flipped bit in the bitmap lists a line
// the frame does not hold, or hides one it does, and every later field is read
// from the wrong place. Half the patches keep the byte's varint continuation
// bit: the rest of the frame then still decodes field for field, and it is the
// changed value — a count, a slot, a thread, a reference kind — that the walks
// have to survive, not a desynchronized stream that the next flag byte
// rejects.
func TestRestoreNeverPanics(t *testing.T) {
	patches := []int{2500, 700}
	if testing.Short() || raceDetector { // one goroutine decodes: the detector has nothing to find here
		patches = []int{400, 100}
	}
	cfgs, frames := robustFrames(t)
	for i, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(17 + i)))
		payload := frames[i][frameHead : len(frames[i])-frameTail]
		levels := levelSections(t, payload)
		for n := 0; n < patches[i]; n++ {
			off := rng.Intn(len(payload))
			switch rng.Intn(7) {
			case 0, 1:
				off = rng.Intn(len(payload) / 10)
			case 2, 3:
				off = len(payload) - 1 - rng.Intn(len(payload)/10)
			case 4, 5:
				s := levels[rng.Intn(len(levels))]
				off = s.at + rng.Intn(s.bitmap-s.at+128)
			}
			val := byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				val = val&0x7f | payload[off]&0x80
			}
			restoreEdited(t, cfg, frames[i], edit(0, off, val))
		}
	}
}

// FuzzCheckpointRestore hands the edit script to the fuzzer. Its seeds are the
// two frames unedited; inputs stay a few bytes long however large the frames
// are, so the fuzzer's time goes into restores, past the checksum.
func FuzzCheckpointRestore(f *testing.F) {
	cfgs, frames := robustFrames(f)
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	f.Add(false, []byte{0, 40, 0, 0, 0xff, 1, 0, 1, 0, 0x80, 2, 0, 0, 6, 0})
	// Into each frame's line bitmaps: sixteen more lines listed in the L1I's,
	// a byte inserted into the L3's (every later bit now names another slot),
	// a byte of the L2's deleted.
	for i, frame := range frames {
		at := levelSections(f, frame[frameHead:len(frame)-frameTail])
		l1i, l2, l3 := at[0].bitmap+32, at[2].bitmap+32, at[3].bitmap+32
		f.Add(i == 1, slices.Concat(edit(0, l1i, 0xff), edit(0, l1i+1, 0xff), edit(1, l3, 0x01), edit(2, l2, 0)))
	}
	f.Fuzz(func(t *testing.T, eight bool, edits []byte) {
		i := 0
		if eight {
			i = 1
		}
		if len(edits) > 40 {
			edits = edits[:40] // each insert or delete copies the payload
		}
		restoreEdited(t, cfgs[i], frames[i], edits)
	})
}
