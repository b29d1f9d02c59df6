package server

import (
	"context"
	"encoding/json"
	"errors"

	"smtdram/internal/runner"
	"smtdram/internal/store"
)

// This file is the daemon's instance of runner.Memo: what a memoized result
// is, and the disk tier behind memory. Determinism makes the memo cheap to
// trust: a fingerprint fully names a result, so an entry in any tier never
// goes stale and a re-run produces byte-identical output.

// result is one memoized answer: the marshalled core.Result (or rendered
// figure) bytes — immutable once stored, so readers hand them straight to
// responses without copying — and the producing run's two-speed-clock summary
// (nil for figure sweeps), which rides beside the byte-identical payload so a
// cached answer reports the skip statistics the original run did.
//
// val is always compact json.Marshal output: a computed result enters the
// memo as simFlightFn's or figFlightFn's Marshal, and the disk tier hands back
// the checksummed bytes that were put, which journal recovery reads through
// the same memo. writeStatus splices val into a reply as it stands.
type result struct {
	val  []byte
	skip *SkipInfo
}

// storeMeta is the sidecar blob stored beside each result payload: data that
// rides next to — never inside — the byte-identical result bytes.
type storeMeta struct {
	Skip *SkipInfo `json:"skip,omitempty"`
}

func (r result) meta() []byte {
	if r.skip == nil {
		return nil
	}
	meta, _ := json.Marshal(storeMeta{Skip: r.skip}) // plain numeric struct: cannot fail
	return meta
}

func resultOf(payload, meta []byte) result {
	r := result{val: payload}
	var m storeMeta
	if len(meta) > 0 && json.Unmarshal(meta, &m) == nil {
		r.skip = m.Skip
	}
	return r
}

// openTier hangs the content-addressed disk store, when open, behind the
// result memo and the warmup-checkpoint cache, whose entries it keeps under
// their own key namespace. A computed result is written through to the store
// before any job resolves. A failed write of either kind degrades the store,
// and /readyz reports it.
func (s *Server) openTier() {
	if s.store != nil {
		s.results.Tier = &runner.Tier[string, result]{Get: s.storeGet, Put: s.storePut}
		s.checkpoints.Persist(s.store)
	}
}

// resultFormat prefixes every store key: bump it when Result bytes move under
// unchanged fingerprints, so a data directory an earlier build wrote recomputes
// (format 1 had no prefix; 2 reduced FaultReport to drops, retries, failover;
// 3 removed the failover report and the migrated-request count).
const resultFormat = "r3|"

// storeGet reads the disk tier. A corrupt entry has already been quarantined
// by the store; it reports as such and the result is recomputed.
func (s *Server) storeGet(_ context.Context, fp string) (result, error) {
	payload, meta, err := s.store.Get(resultFormat + fp)
	switch {
	case err == nil:
		return resultOf(payload, meta), nil
	case errors.Is(err, store.ErrNotFound):
		return result{}, runner.ErrMiss
	}
	s.log.Warn("store entry corrupt; quarantined, recomputing", "fp", fp, "err", err)
	return result{}, err
}

// storePut writes a result through to the disk tier. Write errors degrade
// the store to memory-only mode: serving continues from memory and
// recomputation, and /readyz turns unready.
func (s *Server) storePut(fp string, r result) {
	if err := s.store.Put(resultFormat+fp, r.val, r.meta()); err != nil {
		s.mStoreWriteErrors.Add(1)
		if !errors.Is(err, store.ErrDegraded) {
			s.log.Warn("store write failed; degrading to memory-only result serving",
				"fp", fp, "err", err)
		}
	}
}
