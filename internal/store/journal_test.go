package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func journalPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "journal.wal")
}

func TestJournalAppendReplay(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecSubmitted, Job: "j-1", Kind: "sim", FP: "sim|a", Request: json.RawMessage(`{"apps":["mcf"]}`)},
		{Type: RecStarted, Job: "j-1"},
		{Type: RecResolved, Job: "j-1", State: "done"},
		{Type: RecSubmitted, Job: "j-2", Kind: "figure", FP: "fig|2"},
		{Type: RecCancelled, Job: "j-2"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	got, err := ReadJournal(journalPath(t))
	if err != nil || got != nil {
		t.Fatalf("ReadJournal(missing) = %v, %v; want nil, nil", got, err)
	}
}

// A torn final frame — the expected shape of a SIGKILL mid-append — is
// silently dropped; every complete frame before it replays.
func TestReadJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecSubmitted, Job: "j-1", FP: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecResolved, Job: "j-1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut++ { // tear at various depths into a third frame
		torn := append(append([]byte{}, b...), make([]byte, cut)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(got))
		}
	}
}

// A corrupt byte mid-stream stops replay at the damaged frame.
func TestReadJournalCorruptFrameStops(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Type: RecStarted, Job: "j-1"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = j.Close()
	b, _ := os.ReadFile(path)
	frame := len(b) / 3
	b[frame+10] ^= 0xff // corrupt the second frame's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(got))
	}
}

// Rotation rewrites the journal compactly and atomically, and the rotated
// journal accepts further appends.
func TestRotateJournal(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Type: RecStarted, Job: "j-old"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = j.Close()

	compact := []Record{
		{Type: RecResolved, Job: "j-1", State: "done", FP: "sim|a"},
		{Type: RecSubmitted, Job: "j-2", Kind: "sim", FP: "sim|b", Request: json.RawMessage(`{}`)},
	}
	j2, err := RotateJournal(path, compact, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Type: RecStarted, Job: "j-2"}); err != nil {
		t.Fatal(err)
	}
	_ = j2.Close()

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record{}, compact...), Record{Type: RecStarted, Job: "j-2"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotated replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("rotation temp file survived")
	}
}

func TestJournalAppendErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, err := OpenJournal(path, FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	_ = j.f.Close() // force the next write to fail
	if err := j.Append(Record{Type: RecStarted, Job: "j-1"}); err == nil {
		t.Fatal("Append on closed file succeeded")
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after append error")
	}
}
