package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtdram/internal/store"
)

// These tests drive the daemon's own instance of runner.Memo — Config's
// CacheEntries bound, the bytes-plus-skip value, the store and peer tiers —
// not the memo's mechanics, which internal/runner's table covers.

// cacheOf builds a daemon with the given CacheEntries and returns add/get over
// its result memo: add computes key through a flight, get is a memory Lookup.
func cacheOf(t *testing.T, entries int) (s *Server, add func(string, string, *SkipInfo), get func(string) (result, bool)) {
	s = New(Config{Workers: 1, CacheEntries: entries})
	t.Cleanup(s.Close)
	add = func(key, val string, sk *SkipInfo) {
		t.Helper()
		if _, err := s.results.Do(context.Background(), s.pool, key, func(context.Context) (result, error) {
			return result{val: []byte(val), skip: sk}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get = func(key string) (result, bool) {
		r, _, ok := s.results.Lookup(context.Background(), key, 0)
		return r, ok
	}
	return s, add, get
}

func TestLRUEvictsOldest(t *testing.T) {
	s, add, get := cacheOf(t, 2)
	add("a", "1", nil)
	add("b", "2", nil)
	add("c", "3", nil) // evicts a
	if _, ok := get("a"); ok {
		t.Fatalf("a should have been evicted")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := get(k); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	if n := s.results.Stats().Entries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
}

func TestLRUGetPromotes(t *testing.T) {
	_, add, get := cacheOf(t, 2)
	add("a", "1", nil)
	add("b", "2", nil)
	if _, ok := get("a"); !ok { // a is now most recent
		t.Fatalf("a should be cached")
	}
	add("c", "3", nil) // evicts b, not a
	if _, ok := get("b"); ok {
		t.Fatalf("b should have been evicted")
	}
	if _, ok := get("a"); !ok {
		t.Fatalf("a should have survived via promotion")
	}
}

// TestLRUUpdateExisting: a fingerprint fully names its result, so a key that
// is already cached is answered, never overwritten, and stays one entry.
func TestLRUUpdateExisting(t *testing.T) {
	s, add, get := cacheOf(t, 2)
	add("a", "1", &SkipInfo{Skipped: 5, Wall: 10, Rate: 0.5})
	add("a", "2", nil)
	if n := s.results.Stats().Entries; n != 1 {
		t.Fatalf("entries = %d, want 1 after re-add", n)
	}
	r, ok := get("a")
	if !ok || string(r.val) != "1" || r.skip == nil || r.skip.Skipped != 5 {
		t.Fatalf("get(a) = %q, %+v, %v; want the first computation's bytes and skip summary", r.val, r.skip, ok)
	}
}

func TestLRUSkipRidesAlong(t *testing.T) {
	_, add, get := cacheOf(t, 2)
	add("a", "1", &SkipInfo{Skipped: 80, Wall: 100, Segments: 3, Longest: 40, Rate: 0.8})
	r, ok := get("a")
	if !ok || r.skip == nil {
		t.Fatalf("cached skip summary went missing: %+v, %v", r.skip, ok)
	}
	if r.skip.Skipped != 80 || r.skip.Wall != 100 || r.skip.Rate != 0.8 {
		t.Fatalf("cached skip summary mangled: %+v", r.skip)
	}
}

func TestLRUDisabled(t *testing.T) {
	s, add, get := cacheOf(t, -1)
	add("a", "1", nil)
	if _, ok := get("a"); ok {
		t.Fatalf("disabled cache must not store entries")
	}
	if n := s.results.Stats().Entries; n != 0 {
		t.Fatalf("entries = %d, want 0", n)
	}
}

// TestPeerAskPromotesStoreHit: a peer's ask answered from the disk tier is
// promoted into memory, so a hot re-owned key is read from disk once — and the
// ask never goes on to this node's own peers.
func TestPeerAskPromotesStoreHit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	want := result{val: []byte(`{"v":1}`), skip: &SkipInfo{Skipped: 8, Wall: 10, Rate: 0.8}}
	if err := st.Put("fp-owned", want.val, want.meta()); err != nil {
		t.Fatal(err)
	}
	peers := &countingPeers{}
	s := New(Config{Workers: 1, DataDir: dir, NodeID: "w1", PeerFetch: peers})
	defer s.Close()

	for i, url := range []string{"/v1/peer/result?key=fp-owned", "/v1/peer/result?key=fp-owned", "/v1/peer/result?key=fp-absent"} {
		rec := httptest.NewRecorder()
		s.handlePeerResult(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if i < 2 {
			key, meta, payload, err := store.DecodeEntry(rec.Body.Bytes())
			if rec.Code != http.StatusOK || err != nil || key != "fp-owned" || string(payload) != string(want.val) || string(meta) != string(want.meta()) {
				t.Fatalf("ask %d: code %d, entry %q/%q/%q, %v", i, rec.Code, key, meta, payload, err)
			}
		} else if rec.Code != http.StatusNotFound {
			t.Fatalf("ask for an absent key: code %d, want 404", rec.Code)
		}
	}
	if disk := s.storeTier.Stats(); disk.Hits != 1 || disk.Misses != 1 {
		t.Fatalf("disk tier = %+v, want 1 hit (the repeat came from memory) and 1 miss", disk)
	}
	if n := peers.fetches.Load(); n != 0 {
		t.Fatalf("a peer's ask was forwarded to %d peers", n)
	}
}

// countingPeers is a PeerFetcher holding nothing, counting the asks; gate,
// when set, holds every ask until closed.
type countingPeers struct {
	fetches atomic.Int32
	gate    chan struct{}
}

func (p *countingPeers) Fetch(ctx context.Context, key string) ([]byte, []byte, error) {
	p.fetches.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	return nil, nil, ErrPeerMiss
}

// TestConcurrentMissesProbeTiersOnce: identical submissions arriving together
// read the disk tier and ask the fleet once between them, then share one run.
func TestConcurrentMissesProbeTiersOnce(t *testing.T) {
	peers := &countingPeers{gate: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 16, DataDir: t.TempDir(), NodeID: "w1", PeerFetch: peers})
	defer s.Close()
	var runs atomic.Int64
	release := make(chan struct{})
	close(release)
	fn := blockingFn(release, json.RawMessage(`{"v":1}`), &runs)

	const n = 6
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			s.submit(rec, submitReq(), "sim", "fp-together", nil, fn)
		}(recs[i])
	}
	for peers.fetches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // the rest queue behind the one probe
	close(peers.gate)
	wg.Wait()
	for _, rec := range recs {
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submission answered %d", rec.Code)
		}
		if rec.Code == http.StatusAccepted {
			waitState(t, s, decodeStatus(t, rec).ID, StateDone)
		}
	}
	if got := peers.fetches.Load(); got != 1 {
		t.Fatalf("fleet asked %d times, want once", got)
	}
	if disk := s.storeTier.Stats(); disk.Misses != 1 {
		t.Fatalf("disk tier read %d times, want once", disk.Misses)
	}
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want once", runs.Load())
	}
}
