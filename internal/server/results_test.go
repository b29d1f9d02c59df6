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
// CacheEntries bound, the bytes-plus-skip value, the store tier —
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
		r, ok := s.results.Lookup(context.Background(), key)
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

// TestStoreKeyCarriesResultFormat: an entry an earlier result format wrote
// under an unchanged fingerprint is recomputed, not served, and the fresh
// bytes land under the current format's key.
func TestStoreKeyCarriesResultFormat(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fp-old", "r2|fp-old"} { // formats 1 (the bare fingerprint) and 2
		if err := st.Put(key, []byte(`{"old":1}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Workers: 1, DataDir: dir})
	defer s.Close()
	var runs int
	r, err := s.results.Do(context.Background(), s.pool, "fp-old", func(context.Context) (result, error) {
		runs++
		return result{val: []byte(`{"new":1}`)}, nil
	})
	if err != nil || runs != 1 || string(r.val) != `{"new":1}` {
		t.Fatalf("got %q after %d runs (err %v); want the recomputed bytes from one run", r.val, runs, err)
	}
	if disk := s.results.Tier.Stats(); disk.Hits != 0 || disk.Misses != 1 {
		t.Fatalf("disk tier = %+v, want the old entry read as a miss", disk)
	}
	if payload, _, err := st.Get(resultFormat + "fp-old"); err != nil || string(payload) != `{"new":1}` {
		t.Fatalf("current-format entry = %q, %v; want the recomputed bytes", payload, err)
	}
}

// TestConcurrentMissesProbeTiersOnce: identical submissions arriving together
// read the disk tier once between them, then share one run.
func TestConcurrentMissesProbeTiersOnce(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, DataDir: t.TempDir()})
	defer s.Close()
	var reads atomic.Int32
	gate := make(chan struct{})
	get := s.results.Tier.Get
	s.results.Tier.Get = func(ctx context.Context, fp string) (result, error) {
		reads.Add(1)
		<-gate // hold the one read until every submission has arrived
		return get(ctx, fp)
	}
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
	for reads.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // the rest queue behind the one probe
	close(gate)
	wg.Wait()
	for _, rec := range recs {
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submission answered %d", rec.Code)
		}
		if rec.Code == http.StatusAccepted {
			waitState(t, s, decodeStatus(t, rec).ID, StateDone)
		}
	}
	if got := reads.Load(); got != 1 {
		t.Fatalf("disk tier read %d times, want once", got)
	}
	if disk := s.results.Tier.Stats(); disk.Misses != 1 {
		t.Fatalf("disk tier counted %d misses, want one", disk.Misses)
	}
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want once", runs.Load())
	}
}
