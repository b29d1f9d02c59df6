// Package store is the durability layer under the smtdramd daemon: a
// content-addressed on-disk result store keyed by configuration fingerprint,
// and an append-only CRC-framed write-ahead job journal (journal.go).
//
// The store exploits the simulator's determinism: a fingerprint names the
// complete configuration, the configuration fully determines the result
// bytes, so a stored entry is valid forever — there is no invalidation
// problem, only integrity. Every entry therefore carries a CRC32C checksum;
// a corrupt entry is quarantined on read and transparently recomputed by the
// caller, never served.
//
// Failure ladder (graceful degradation, never an outage):
//
//  1. healthy      — reads and writes hit the disk tier;
//  2. degraded     — a write error (disk full, permission, IO) flips the
//     store to memory-only mode: reads keep working where possible, writes
//     become no-ops, the daemon keeps serving from its in-memory LRU and
//     recomputation. Degradation is sticky until restart and is surfaced
//     through Degraded() for /readyz and /v1/stats (.store.degraded);
//  3. corrupt entry — quarantined under <dir>/quarantine and reported as a
//     miss; the caller recomputes and rewrites it.
//
// On-disk layout under the data directory:
//
//	<sha256(key)>.res   one result entry (format below)
//	quarantine/         corrupt entries, moved aside for post-mortem
//	journal.wal         the write-ahead job journal (journal.go)
//	.tmp-*              in-flight writes (ignored, cleaned opportunistically)
//
// Entry format, all integers little-endian:
//
//	magic "SDRS" | version u8 | keyLen u32 | key | metaLen u32 | meta |
//	payloadLen u32 | payload | crc32c u32 over everything before it
//
// The key is stored verbatim so a read can reject the (astronomically
// unlikely) hash collision and so quarantined files identify themselves.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FsyncPolicy selects how aggressively the store and journal flush to stable
// storage. Off survives process death (SIGKILL included — the data already
// crossed into the kernel); Always additionally survives OS crash and power
// loss at the cost of an fsync per write.
type FsyncPolicy int

const (
	// FsyncOff never calls fsync. Durable against process crash, not
	// against kernel crash or power loss.
	FsyncOff FsyncPolicy = iota
	// FsyncAlways fsyncs every journal append and every store write (and
	// the directory on rename).
	FsyncAlways
)

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return FsyncOff, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncOff, fmt.Errorf("store: unknown fsync policy %q (want off or always)", s)
}

func (p FsyncPolicy) String() string {
	if p == FsyncAlways {
		return "always"
	}
	return "off"
}

// ErrNotFound reports a key with no stored entry.
var ErrNotFound = errors.New("store: not found")

// ErrDegraded reports a write refused because the store already degraded to
// memory-only mode.
var ErrDegraded = errors.New("store: degraded to memory-only mode")

// CorruptError reports an entry that failed integrity checks; the file has
// been quarantined and the caller should recompute.
type CorruptError struct {
	Key    string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: entry for %q corrupt (%s); quarantined", e.Key, e.Reason)
}

const (
	entryMagic   = "SDRS"
	entryVersion = 1
	entrySuffix  = ".res"
	tmpPrefix    = ".tmp-"
	// maxFieldLen bounds each length field while decoding, so a corrupt
	// header cannot demand an absurd allocation.
	maxFieldLen = 64 << 20
)

// castagnoli is the CRC32C polynomial table shared by entries and journal
// frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of the store's counters for /v1/stats.
type Stats struct {
	Entries  int
	Degraded bool
}

// Store is the content-addressed result store. Safe for concurrent use.
type Store struct {
	dir   string
	fsync FsyncPolicy

	mu       sync.Mutex // serializes writes and quarantine moves
	entries  atomic.Int64
	degraded atomic.Bool
}

// Open prepares dir (and its quarantine subdirectory) and counts existing
// entries. A leftover temp file from a crashed write is removed.
func Open(dir string, fsync FsyncPolicy) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fsync: fsync}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	n := int64(0)
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, entrySuffix):
			n++
		case strings.HasPrefix(name, tmpPrefix):
			_ = os.Remove(filepath.Join(dir, name)) // torn write from a crash
		}
	}
	s.entries.Store(n)
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored entries.
func (s *Store) Len() int { return int(s.entries.Load()) }

// Degraded reports whether a write error has flipped the store to
// memory-only mode (sticky until restart).
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Snapshot returns the store's current stats.
func (s *Store) Snapshot() Stats {
	return Stats{Entries: s.Len(), Degraded: s.Degraded()}
}

// pathFor maps a key to its content-addressed file path.
func (s *Store) pathFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+entrySuffix)
}

// Get returns the payload and meta bytes stored for key. A missing entry
// returns ErrNotFound; a corrupt one is quarantined and returns a
// *CorruptError — both mean "recompute". Reads keep working in degraded
// mode: whatever made it to disk is still served.
func (s *Store) Get(key string) (payload, meta []byte, err error) {
	path := s.pathFor(key)
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	gotKey, meta, payload, derr := decodeEntry(b)
	if derr == nil && gotKey != key {
		derr = fmt.Errorf("key mismatch: holds %q", gotKey)
	}
	if derr != nil {
		s.quarantine(path)
		return nil, nil, &CorruptError{Key: key, Reason: derr.Error()}
	}
	return payload, meta, nil
}

// quarantine moves a corrupt entry aside (overwriting any previous
// quarantined copy of the same file) and drops it from the entry count.
func (s *Store) quarantine(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		_ = os.Remove(path) // removal also clears the bad entry
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		s.entries.Add(-1)
	}
}

// Put stores payload and meta under key via an atomic temp+rename write.
// Any IO error flips the store to degraded (memory-only) mode and is
// returned; subsequent Puts short-circuit with ErrDegraded.
func (s *Store) Put(key string, payload, meta []byte) error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.put(key, payload, meta); err != nil {
		s.degraded.Store(true)
		return err
	}
	return nil
}

func (s *Store) put(key string, payload, meta []byte) error {
	final := s.pathFor(key)
	_, statErr := os.Stat(final)
	fresh := os.IsNotExist(statErr)

	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func() { _ = f.Close(); _ = os.Remove(tmp) }
	if _, err := f.Write(encodeEntry(key, meta, payload)); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if s.fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if s.fsync == FsyncAlways {
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
	if fresh {
		s.entries.Add(1)
	}
	return nil
}

// encodeEntry frames key, meta, and payload with the trailing CRC32C.
func encodeEntry(key string, meta, payload []byte) []byte {
	b := make([]byte, 0, len(entryMagic)+1+12+len(key)+len(meta)+len(payload)+4)
	b = append(b, entryMagic...)
	b = append(b, entryVersion)
	b = appendField(b, []byte(key))
	b = appendField(b, meta)
	b = appendField(b, payload)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendField(b, field []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(field)))
	return append(b, field...)
}

// decodeEntry validates an entry's framing and checksum.
func decodeEntry(b []byte) (key string, meta, payload []byte, err error) {
	if len(b) < len(entryMagic)+1+12+4 {
		return "", nil, nil, errors.New("truncated")
	}
	if string(b[:len(entryMagic)]) != entryMagic {
		return "", nil, nil, errors.New("bad magic")
	}
	if b[len(entryMagic)] != entryVersion {
		return "", nil, nil, fmt.Errorf("unknown version %d", b[len(entryMagic)])
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return "", nil, nil, errors.New("checksum mismatch")
	}
	rest := body[len(entryMagic)+1:]
	keyB, rest, err := takeField(rest)
	if err != nil {
		return "", nil, nil, err
	}
	meta, rest, err = takeField(rest)
	if err != nil {
		return "", nil, nil, err
	}
	payload, rest, err = takeField(rest)
	if err != nil {
		return "", nil, nil, err
	}
	if len(rest) != 0 {
		return "", nil, nil, errors.New("trailing bytes")
	}
	return string(keyB), meta, payload, nil
}

func takeField(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("truncated length")
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFieldLen || uint64(n) > uint64(len(b)-4) {
		return nil, nil, errors.New("length out of range")
	}
	return b[4 : 4+n], b[4+n:], nil
}
