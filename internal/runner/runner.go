// Package runner provides the bounded worker pool that fans independent
// simulations out across GOMAXPROCS goroutines. Every simulated machine is
// still one goroutine (the event.Queue contract: a Queue is single-threaded);
// the pool only exploits the parallelism *between* machines — the dozens of
// independent core.Run calls behind every figure of the paper's evaluation.
//
// Determinism contract: Submit returns a Future immediately, and results are
// consumed by Wait-ing futures in submission order on the submitting
// goroutine. Each simulation is a pure function of its Config (private
// event queue, private rng), so the assembled output is byte-identical to a
// sequential run regardless of the completion order of the workers. A pool
// with Jobs()==1 degenerates to lazy inline execution: each job runs on the
// submitting goroutine at its future's first Wait — exactly the pre-pool
// compute/collect interleaving, with no goroutines involved.
package runner

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Pool bounds how many submitted jobs run concurrently.
type Pool struct {
	jobs int
	sem  chan struct{}
	// instr, when set, observes every pooled job's slot wait (submission →
	// worker-slot acquisition). See Instrument.
	instr func(name string, wait time.Duration)
}

// New builds a pool running up to jobs submissions concurrently. jobs < 1
// selects runtime.GOMAXPROCS(0). A 1-job pool runs each submission inline,
// deferred to its future's first Wait.
func New(jobs int) *Pool {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: jobs}
	if jobs > 1 {
		p.sem = make(chan struct{}, jobs)
	}
	return p
}

// NewPooled builds a pool that always runs submissions on worker goroutines,
// even at jobs == 1. The serving daemon needs this form: its futures are
// awaited from per-flight goroutines, so lazy inline execution — which
// assumes the submitting goroutine does the waiting, and whose Future is not
// safe for concurrent Waits — would both race and break the concurrency
// bound. jobs < 1 selects runtime.GOMAXPROCS(0).
func NewPooled(jobs int) *Pool {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{jobs: jobs, sem: make(chan struct{}, jobs)}
}

// Jobs reports the concurrency bound.
func (p *Pool) Jobs() int { return p.jobs }

// Instrument installs a queue-wait observer: fn fires on the worker goroutine
// the moment a pooled job acquires its slot, carrying the job's label and how
// long it sat queued behind the concurrency bound. The serving daemon feeds
// this into its pool-wait histogram. fn must be safe to call from many worker
// goroutines at once. Lazy (1-job) pools never queue, so fn never fires for
// them. Install before the first Submit; later installation races with
// in-flight jobs reading the hook.
func (p *Pool) Instrument(fn func(name string, wait time.Duration)) { p.instr = fn }

// Future is the pending result of one submitted job.
type Future[T any] struct {
	fn   func() (T, error) // non-nil: lazy (1-job pool), runs at first Wait
	done chan struct{}     // non-nil: running on a worker goroutine
	val  T
	err  error
}

// Wait returns the job's result, blocking until the worker finishes (pooled
// jobs) or running the job now (1-job pools, which defer execution to Wait so
// sequential mode interleaves compute and collection exactly like a plain
// loop). Wait may be called more than once; lazy futures must be awaited on
// the submitting goroutine, pooled futures from anywhere.
func (f *Future[T]) Wait() (T, error) {
	if f.fn != nil {
		fn := f.fn
		f.fn = nil
		f.val, f.err = fn()
	} else if f.done != nil {
		<-f.done
	}
	return f.val, f.err
}

// resolved builds an already-completed future carrying v. The baseline memo
// uses it to hand out cached values through the same Wait interface.
func resolved[T any](v T, err error) *Future[T] {
	return &Future[T]{val: v, err: err}
}

// PanicError is the error a Future carries when its job panicked. The panic
// is confined to that one future — the pool, the process, and every other
// submitted job keep running — and the error preserves everything needed to
// debug the crash offline: the job's label (drivers pass the config
// fingerprint), the panic value, and the goroutine stack at the panic site.
type PanicError struct {
	// Job is the label passed to SubmitNamed ("" for unnamed submissions).
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	job := e.Job
	if job == "" {
		job = "job"
	}
	return fmt.Sprintf("runner: %s panicked: %v\n%s", job, e.Value, e.Stack)
}

// guard runs fn, converting a panic into a *PanicError so one crashing
// simulation cannot take down a whole sweep. It covers both execution paths:
// pooled worker goroutines (where an unrecovered panic would kill the
// process) and lazy Wait-time execution on the submitting goroutine.
func guard[T any](name string, fn func() (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Submit schedules fn on the pool and returns its future. On a 1-job pool fn
// is deferred until the future's first Wait (on the calling goroutine);
// otherwise it runs on a worker goroutine once a slot frees up. fn must not
// Wait on other futures of the same pool (a job waiting on an unscheduled job
// could deadlock a full pool); waiting belongs on the submitting goroutine.
// A panicking fn fails only its own future (see PanicError).
func Submit[T any](p *Pool, fn func() (T, error)) *Future[T] {
	return SubmitNamed(p, "", fn)
}

// SubmitNamed is Submit with a job label that identifies the submission in
// PanicError should fn crash. Drivers running many configurations pass each
// config's fingerprint so a panic names the exact run that died.
func SubmitNamed[T any](p *Pool, name string, fn func() (T, error)) *Future[T] {
	return SubmitNamedCtx(p, context.Background(), name, func(context.Context) (T, error) { return fn() })
}

// SubmitNamedCtx schedules fn with a cancellation context. A job whose ctx is
// cancelled while it is still queued (waiting for a pool slot, or awaiting a
// lazy Wait) resolves to ctx.Err() without ever running fn, so abandoned work
// costs no CPU; a job already running receives ctx and is expected to observe
// the cancellation itself (core.Simulator.RunContext checks it at its
// watchdog boundaries). Cancellation never poisons the pool: the slot is
// released as usual and later submissions run normally.
func SubmitNamedCtx[T any](p *Pool, ctx context.Context, name string, fn func(context.Context) (T, error)) *Future[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	run := func() (T, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		return guard(name, func() (T, error) { return fn(ctx) })
	}
	if p.sem == nil {
		return &Future[T]{fn: run}
	}
	f := &Future[T]{done: make(chan struct{})}
	queued := time.Now()
	go func() {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			f.err = ctx.Err()
			close(f.done)
			return
		}
		defer func() { <-p.sem }()
		if p.instr != nil {
			p.instr(name, time.Since(queued))
		}
		f.val, f.err = run()
		close(f.done)
	}()
	return f
}

// ErrMiss is what a Tier's Get returns for a key the tier does not hold. Any
// other error means the tier held a damaged entry: it counts as corrupt and
// as a miss, and the value is recomputed.
var ErrMiss = errors.New("runner: memo tier miss")

// Tier is one slower level behind a Memo's memory: a disk store, a fleet
// peer, a caller-owned map. Get may block on IO and must honour ctx; Put (nil
// for a read-only tier) receives every value the memo computes or finds in a
// later tier. Both run with no memo lock held.
type Tier[K comparable, V any] struct {
	Get func(ctx context.Context, key K) (V, error)
	Put func(key K, v V)

	hits, misses, corrupt atomic.Uint64
}

// TierStats counts one tier's lookups; a corrupt entry counts as a miss too.
type TierStats struct{ Hits, Misses, Corrupt uint64 }

// Stats snapshots the tier's counters. Nil-safe (zeros).
func (t *Tier[K, V]) Stats() TierStats {
	if t == nil {
		return TierStats{}
	}
	return TierStats{Hits: t.hits.Load(), Misses: t.misses.Load(), Corrupt: t.corrupt.Load()}
}

// MemoStats is a Memo's one counter set. Hits counts Lookups and Joins
// answered without computing (from memory or a tier), Misses Lookups that
// found nothing, Joins callers that attached to a computation in flight,
// Starts computations started, Evictions resolved entries shed by the cap;
// Entries is the table size, computations in flight included.
type MemoStats struct {
	Hits, Misses, Joins, Starts, Evictions uint64
	Entries                                int
}

// Memo is the repo's one keyed memoization mechanism: a concurrency-safe
// table of resolved values in LRU order and computations in flight, with
// optional slower tiers behind it. The daemon's result cache, its
// warmup-checkpoint cache and a figure sweep's alone-IPC baselines are all
// instances. The zero Memo is ready to use: unbounded, no tiers.
//
// Lookup answers from memory, then the tiers, and never computes. Join
// attaches the caller to the key's computation, starting it when there is
// none; Do is Lookup, then Join, then Wait. A computation runs under a
// context the memo owns: each attached caller waits under its own, and the
// computation is cancelled only when the last of them has left, so one caller
// giving up never fails another. Only successes stay: a computation that
// errors or panics is forgotten, its waiters see the failure, the next caller
// recomputes. A computation in flight is never evicted, so the table can
// exceed its cap while more than cap of them are airborne.
type Memo[K comparable, V any] struct {
	// Tiers are the levels behind memory, fastest first; set before first
	// use. A value found in tier i is put into memory and tiers 0..i-1, a
	// computed value into memory and every tier.
	Tiers []*Tier[K, V]

	mu      sync.Mutex
	cap     int // 0 unbounded, < 0 retain nothing
	table   map[K]*memoEntry[K, V]
	probing map[K]*memoProbe[K, V]
	lru     list.List // resolved entries, most recent first; values are *memoEntry[K, V]
	stats   MemoStats
}

// memoEntry is resolved (elem set, val valid) or in flight (flight set).
type memoEntry[K comparable, V any] struct {
	key    K
	val    V
	elem   *list.Element
	flight *Flight[V]
}

// memoProbe is one Lookup reading the tiers for a key; identical concurrent
// Lookups wait for it instead of repeating the IO.
type memoProbe[K comparable, V any] struct {
	done  chan struct{}
	depth int
	val   V
	src   *Tier[K, V]
	ok    bool
}

// Flight is a caller's handle on one computation. Every Join is matched by
// one Wait or one Leave.
type Flight[V any] struct {
	// Tag is the starter's to set, under whatever lock serializes its Joins,
	// before a joiner can read it: per-computation state the callers share.
	Tag any

	fut *Future[V]
	// detach(true) takes one waiter off; detach(false) only frees the key.
	// Nil when Join found the value resolved.
	detach  func(leaving bool)
	waiters int  // guarded by the memo's mu
	settled bool // guarded by the memo's mu
}

// Wait blocks until the computation finishes or ctx is done. In the second
// case the caller leaves the flight and gets ctx.Err(); the computation goes
// on for whoever is still attached. On a lazy (1-job) pool the computation
// runs here, on the calling goroutine.
func (f *Flight[V]) Wait(ctx context.Context) (V, error) {
	if f.fut.done != nil {
		select {
		case <-f.fut.done:
		case <-ctx.Done():
			f.Leave()
			var zero V
			return zero, ctx.Err()
		}
	}
	v, err := f.fut.Wait()
	if err != nil && f.detach != nil {
		f.detach(false) // a flight cancelled while queued never ran, so never forgot itself
	}
	return v, err
}

// Leave detaches the caller without waiting. The last caller to leave an
// unfinished computation cancels it and frees the key, so a later Join starts
// afresh instead of boarding a doomed flight.
func (f *Flight[V]) Leave() {
	if f.detach != nil {
		f.detach(true)
	}
}

// SetCap bounds the memo to n entries with LRU eviction of resolved values;
// n == 0 removes the bound and n < 0 retains nothing (computations are still
// shared while in flight). An over-cap memo sheds entries at its next
// insertion, not immediately.
func (m *Memo[K, V]) SetCap(n int) {
	m.mu.Lock()
	m.cap = n
	m.mu.Unlock()
}

// Stats snapshots the memo's counters.
func (m *Memo[K, V]) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = len(m.table)
	return st
}

// insertLocked files e — resolved or in flight — and sheds least-recently-used
// resolved entries until the table fits its cap or only flights remain.
func (m *Memo[K, V]) insertLocked(e *memoEntry[K, V]) {
	if e.flight == nil && m.cap < 0 {
		delete(m.table, e.key)
		return
	}
	if m.table == nil {
		m.table = make(map[K]*memoEntry[K, V])
	}
	m.table[e.key] = e
	if e.flight == nil {
		e.elem = m.lru.PushFront(e)
	}
	for m.cap > 0 && len(m.table) > m.cap && m.lru.Len() > 0 {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry[K, V])
		delete(m.table, old.key)
		m.stats.Evictions++
	}
}

// Lookup answers key from memory or, failing that, from the first depth
// tiers (depth < 0: all of them), promoting a tier hit into memory and the
// tiers before it. It never computes and never waits for a computation: a key
// in flight is a miss. src is the tier that answered, nil for memory.
// Concurrent Lookups of one key read the tiers once.
func (m *Memo[K, V]) Lookup(ctx context.Context, key K, depth int) (v V, src *Tier[K, V], ok bool) {
	if depth < 0 || depth > len(m.Tiers) {
		depth = len(m.Tiers)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if e := m.table[key]; e != nil {
			if e.elem == nil {
				break // in flight: whoever started it already missed the tiers
			}
			m.lru.MoveToFront(e.elem)
			m.stats.Hits++
			return e.val, nil, true
		}
		p := m.probing[key]
		if p == nil {
			if depth == 0 {
				break
			}
			p = m.probeLocked(ctx, key, depth)
		} else {
			m.mu.Unlock()
			select {
			case <-p.done:
			case <-ctx.Done():
			}
			m.mu.Lock()
		}
		if p.ok {
			m.stats.Hits++
			return p.val, p.src, true
		}
		if p.depth >= depth || ctx.Err() != nil {
			break
		}
	}
	m.stats.Misses++
	return v, nil, false
}

// probeLocked reads the first depth tiers for key on behalf of every
// concurrent Lookup of it. Called with m.mu held; the IO runs unlocked.
func (m *Memo[K, V]) probeLocked(ctx context.Context, key K, depth int) *memoProbe[K, V] {
	p := &memoProbe[K, V]{done: make(chan struct{}), depth: depth}
	if m.probing == nil {
		m.probing = make(map[K]*memoProbe[K, V])
	}
	m.probing[key] = p
	m.mu.Unlock()
	for i, t := range m.Tiers[:depth] {
		v, err := t.Get(ctx, key)
		if err != nil {
			t.misses.Add(1)
			if !errors.Is(err, ErrMiss) {
				t.corrupt.Add(1)
			}
			continue
		}
		t.hits.Add(1)
		p.val, p.src, p.ok = v, t, true
		m.putTiers(m.Tiers[:i], key, v)
		break
	}
	m.mu.Lock()
	delete(m.probing, key)
	if p.ok && m.table[key] == nil {
		m.insertLocked(&memoEntry[K, V]{key: key, val: p.val})
	}
	close(p.done)
	return p
}

func (m *Memo[K, V]) putTiers(tiers []*Tier[K, V], key K, v V) {
	for _, t := range tiers {
		if t.Put != nil {
			t.Put(key, v)
		}
	}
}

// Outcome says how a Join attached its caller.
type Outcome int

const (
	Started Outcome = iota // no computation was in flight; this call started one
	Joined                 // attached to a computation already in flight
	Hit                    // the value was already resolved; the flight is complete
)

// Join attaches the caller to key's computation, starting fn on p when none
// is in flight. It does not read the tiers (Lookup does). parent supplies the
// computation's context values and an outer cancellation — a server's
// shutdown, a sweep's context — but never a single caller's: callers come and
// go through Wait and Leave.
func (m *Memo[K, V]) Join(parent context.Context, p *Pool, key K, fn func(context.Context) (V, error)) (*Flight[V], Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.table[key]; e != nil {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
			m.stats.Hits++
			return &Flight[V]{fut: resolved(e.val, nil)}, Hit
		}
		e.flight.waiters++
		m.stats.Joins++
		return e.flight, Joined
	}
	m.stats.Starts++
	ctx, cancel := context.WithCancel(parent)
	f := &Flight[V]{waiters: 1}
	e := &memoEntry[K, V]{key: key, flight: f}
	f.detach = func(leaving bool) {
		m.mu.Lock()
		if leaving {
			if !f.settled {
				f.waiters--
			}
			if f.settled || f.waiters > 0 {
				m.mu.Unlock()
				return
			}
		}
		if m.table[key] == e {
			delete(m.table, key)
		}
		m.mu.Unlock()
		if leaving {
			cancel()
		}
	}
	m.insertLocked(e)
	f.fut = SubmitNamedCtx(p, ctx, "", func(ctx context.Context) (v V, err error) {
		defer func() {
			r := recover()
			m.mu.Lock()
			f.settled = true
			if m.table[key] == e { // not abandoned by its last waiter
				if e.val, e.flight = v, nil; err != nil || r != nil {
					delete(m.table, key)
				} else {
					m.insertLocked(e)
				}
			}
			m.mu.Unlock()
			cancel()
			if r != nil {
				panic(r) // guard turns it into the future's PanicError
			}
		}()
		if v, err = fn(ctx); err == nil {
			// Write through before the future resolves: a waiter that sees
			// the value may promise it is durable.
			m.putTiers(m.Tiers, key, v)
		}
		return v, err
	})
	return f, Started
}

// Do returns key's value: from memory or a tier if present, else by joining
// or starting the single computation fn. The computation inherits ctx's
// values but not its cancellation; ctx only bounds this caller's wait.
func (m *Memo[K, V]) Do(ctx context.Context, p *Pool, key K, fn func(context.Context) (V, error)) (V, error) {
	if v, _, ok := m.Lookup(ctx, key, -1); ok {
		return v, nil
	}
	f, _ := m.Join(context.WithoutCancel(ctx), p, key, fn)
	return f.Wait(ctx)
}
