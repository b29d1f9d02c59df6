package cache

import "smtdram/internal/snap"

// Next-line prefetching with dedicated prefetch MSHRs.
//
// Table 1 of the paper provisions "Prefetch MSHR entries: 4/cache" alongside
// the 16 demand MSHRs. This file implements the matching mechanism: on a
// demand miss to line X, the level may speculatively fetch line X+1 through
// a separate, smaller MSHR pool so prefetches never steal demand miss
// bandwidth. Prefetched fills install clean and are tagged so usefulness can
// be measured.
//
// Prefetching defaults off in core.DefaultConfig — the workload calibration
// in DESIGN.md was performed without it — but the ablation benchmark
// (BenchmarkAblationPrefetch) and any Config with PrefetchNextLine=true
// exercise it end to end.

// prefetchStats counts prefetch activity for one level.
type prefetchStats struct {
	Issued  uint64 // prefetches sent to the lower level
	Useful  uint64 // prefetched lines later hit by demand accesses
	Late    uint64 // demand access arrived while the prefetch was in flight
	Dropped uint64 // suppressed: line present, MSHR busy, or pool exhausted
}

// maybePrefetch is called on a demand miss to la; it may start a next-line
// prefetch.
func (l *Level) maybePrefetch(now uint64, la uint64, meta Meta) {
	if !l.cfg.PrefetchNextLine || l.cfg.Perfect {
		return
	}
	next := la + uint64(l.cfg.LineBytes)
	if l.lookup(next) != nil {
		l.Prefetch.Dropped++
		return
	}
	if l.mshrFor(next) != nil {
		l.Prefetch.Dropped++
		return
	}
	if l.pfInFlight >= l.cfg.PrefetchMSHRs {
		l.Prefetch.Dropped++
		return
	}
	if _, dup := l.pfPending[next]; dup {
		l.Prefetch.Dropped++
		return
	}

	l.pfInFlight++
	l.pfPending[next] = struct{}{}
	l.Prefetch.Issued++
	pfMeta := meta
	pfMeta.Critical = false // prefetches are never critical
	l.issuePrefetch(now, next, pfMeta)
}

// pfIssue is a scheduled prefetch issue (event.Handler): it hands the
// speculative fill to the lower level when it fires, rescheduling itself on
// backpressure. A typed object rather than a closure so in-flight prefetches
// serialize.
type pfIssue struct {
	l    *Level
	la   uint64
	meta Meta
}

func (p *pfIssue) OnEvent(now uint64) {
	l := p.l
	if !l.lower.ReadLine(now, p.la, p.meta, &pfFill{l: l, la: p.la}) {
		l.issuePrefetch(now+retryGap, p.la, p.meta)
	}
}

// SnapRef implements event.RefMaker.
func (p *pfIssue) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCachePfIssue,
		Args: append([]uint64{uint64(p.l.snapID), p.la}, metaArgs(p.meta)...)}
}

// pfFill is a prefetch's data-arrival continuation (event.Filler).
type pfFill struct {
	l  *Level
	la uint64
}

func (p *pfFill) OnFill(fillAt uint64) {
	l, la := p.l, p.la
	l.pfInFlight--
	delete(l.pfPending, la)
	// A demand miss may have allocated its own MSHR for this line while the
	// prefetch was in flight; in that case the demand fill will install it,
	// and installing here too would double-count.
	if l.mshrFor(la) != nil {
		l.Prefetch.Late++
		return
	}
	if l.lookup(la) == nil {
		l.install(fillAt, la, linePrefetched) // clean, and tagged until a demand access hits it
	}
}

// SnapRef implements event.RefMaker.
func (p *pfFill) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KCachePfFill, Args: []uint64{uint64(p.l.snapID), p.la}}
}

// issuePrefetch schedules the speculative fill's issue, retrying while the
// lower level is saturated (prefetches are patient; they never block demand).
func (l *Level) issuePrefetch(at uint64, la uint64, meta Meta) {
	l.q.ScheduleHandler(at+l.cfg.Latency, &pfIssue{l: l, la: la, meta: meta})
}

// notePrefetchHit records a demand hit on a prefetched line (called from the
// hit paths) and, tagged-prefetch style, keeps the stream running by
// prefetching the following line — otherwise a sequential walk would only
// ever cover alternate lines.
func (l *Level) notePrefetchHit(now uint64, la uint64, ln *line, meta Meta) {
	if ln.w&linePrefetched != 0 {
		ln.w &^= linePrefetched
		l.Prefetch.Useful++
		l.maybePrefetch(now, la, meta)
	}
}
