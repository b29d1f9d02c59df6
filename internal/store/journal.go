package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// The write-ahead job journal records every job lifecycle transition so a
// crashed daemon can reconstruct its job table on restart: jobs that were
// queued or running are re-enqueued, finished jobs are rehydrated from the
// result store, and cancelled ones stay cancelled.
//
// Frame format, all integers little-endian:
//
//	length u32 | crc32c(payload) u32 | payload (JSON-encoded Record)
//
// A crash can tear the final frame (short write); ReadJournal stops at the
// first frame that fails length or checksum validation and returns everything
// before it — by write-ahead ordering the torn record had not yet taken
// effect, so dropping it is exactly correct. After replay the daemon rotates
// the journal (RotateJournal): live state is rewritten compactly and the torn
// tail disappears.

// RecordType is a journal record's lifecycle kind.
type RecordType string

const (
	// RecSubmitted marks an admitted job, carrying the request needed to
	// re-run it after a crash.
	RecSubmitted RecordType = "submitted"
	// RecStarted marks a job whose flight reached a pool worker.
	RecStarted RecordType = "started"
	// RecResolved marks a finished job (State done or failed).
	RecResolved RecordType = "resolved"
	// RecCancelled marks a client-cancelled job.
	RecCancelled RecordType = "cancelled"
)

// Record is one journal entry. Submitted records carry everything needed to
// re-create the job (kind, fingerprint, request body); later records need
// only the job id plus their outcome.
type Record struct {
	Type RecordType `json:"type"`
	Job  string     `json:"job"`
	Kind string     `json:"kind,omitempty"` // "sim" or "figure" (submitted)
	FP   string     `json:"fp,omitempty"`   // cache/store fingerprint (submitted)
	// Request is the original wire request (submitted records), replayed to
	// rebuild the identical flight after a crash.
	Request json.RawMessage `json:"request,omitempty"`
	// State ("done" or "failed") and Error describe resolved records.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// maxRecordLen bounds a frame's declared length while reading, so a corrupt
// header cannot demand an absurd allocation.
const maxRecordLen = 16 << 20

// Journal is the append-only write-ahead log. Safe for concurrent use.
type Journal struct {
	path  string
	fsync FsyncPolicy

	mu       sync.Mutex
	f        *os.File
	degraded atomic.Bool
}

// ReadJournal replays the journal at path. A missing file is an empty
// journal. Reading stops cleanly at the first torn or corrupt frame (the
// expected shape of a crash mid-append); only an unreadable file is an error.
func ReadJournal(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	var recs []Record
	for len(b) >= 8 {
		n := binary.LittleEndian.Uint32(b)
		if n == 0 || n > maxRecordLen || uint64(n) > uint64(len(b)-8) {
			break // torn tail
		}
		want := binary.LittleEndian.Uint32(b[4:])
		payload := b[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != want {
			break // torn or corrupt tail
		}
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			break
		}
		recs = append(recs, r)
		b = b[8+n:]
	}
	return recs, nil
}

// RotateJournal atomically replaces the journal at path with one holding
// exactly records (the compacted live state after replay), then reopens it
// for appending. The rename is atomic: a crash mid-rotation leaves either
// the old journal or the new one, never a mix.
func RotateJournal(path string, records []Record, fsync FsyncPolicy) (*Journal, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	for _, r := range records {
		frame, err := encodeFrame(r)
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return nil, err
		}
		if _, err := f.Write(frame); err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return nil, fmt.Errorf("store: journal: %w", err)
		}
	}
	if fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return nil, fmt.Errorf("store: journal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	return OpenJournal(path, fsync)
}

// OpenJournal opens (creating if needed) the journal at path for appending.
func OpenJournal(path string, fsync FsyncPolicy) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	return &Journal{path: path, fsync: fsync, f: f}, nil
}

// Append writes one record. An IO error flips the journal to degraded mode
// (sticky until restart): later appends short-circuit with ErrDegraded and
// the daemon keeps serving without write-ahead durability.
func (j *Journal) Append(r Record) error {
	if j.degraded.Load() {
		return ErrDegraded
	}
	frame, err := encodeFrame(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(frame); err != nil {
		j.degraded.Store(true)
		return fmt.Errorf("store: journal: %w", err)
	}
	if j.fsync == FsyncAlways {
		if err := j.f.Sync(); err != nil {
			j.degraded.Store(true)
			return fmt.Errorf("store: journal: %w", err)
		}
	}
	return nil
}

// Degraded reports whether an append error has disabled the journal.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

func encodeFrame(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...), nil
}
