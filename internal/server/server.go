// Package server is the sweep service behind cmd/matscale-server: an
// embeddable job-queue engine that admits SweepSpecs from many
// concurrent clients, executes them on the internal/sweep worker pool,
// streams per-cell progress to subscribers, and memoizes completed
// cells in a shared cache so overlapping sweeps hit byte-identical
// results instead of re-simulating.
//
// The package is wall-clock-free by construction: it sits under the
// repo's determinism contract (docs/ANALYSIS.md), so every time read —
// rate-limiter refills, per-job timeouts — flows through the injected
// Clock interface. With a nil Clock the server still serves jobs; only
// the features that *are* time (rate limiting, timeouts) are disabled.
// That keeps job results a pure function of (spec, seed, backend) and
// makes the timeout and admission paths deterministically testable
// with a fake clock. See docs/SERVER.md for the HTTP API and the
// admission/backpressure semantics.
package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"matscale/internal/machine"
	"matscale/internal/sweep"
)

// Clock is the server's only source of wall time. The production
// implementation (defined by the cmd binaries, outside the
// determinism-contract packages) wraps time.Now and time.After; tests
// inject manual clocks to drive rate-limiter refills and job timeouts
// deterministically.
type Clock interface {
	// Now returns the current wall time; it meters rate-limiter refills.
	Now() time.Time
	// After returns a channel that delivers one value after d; it arms
	// per-job timeouts.
	After(d time.Duration) <-chan time.Time
}

// Default admission-control constants, applied by New when the Config
// leaves the field zero.
const (
	DefaultQueueDepth    = 64
	DefaultMaxConcurrent = 2
	DefaultCacheCells    = 1 << 16
	DefaultRetainJobs    = 4096
)

// Config parameterizes a Server. The zero value is usable: defaults
// fill in, and the time-dependent features stay off until a Clock is
// supplied.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-yet-running
	// jobs; a submit beyond it is rejected with *QueueFullError
	// (0: DefaultQueueDepth).
	QueueDepth int
	// MaxConcurrent is the number of jobs executing simultaneously,
	// each on its own sweep worker pool (0: DefaultMaxConcurrent).
	MaxConcurrent int
	// SweepWorkers is the host worker count each running job fans its
	// cells over (≤ 0: all CPUs — note total host goroutines scale as
	// MaxConcurrent × SweepWorkers).
	SweepWorkers int
	// RatePerSec, when positive, token-bucket rate-limits admission;
	// submits beyond the rate are rejected with *RateLimitedError.
	// Requires a Clock.
	RatePerSec float64
	// Burst is the token-bucket depth (0: max(1, ceil(RatePerSec))).
	Burst int
	// JobTimeout, when positive, bounds each job's wall-clock run; a
	// job exceeding it aborts at the next cell boundary and fails with
	// *JobTimeoutError. Requires a Clock.
	JobTimeout time.Duration
	// CacheCells sizes the built-in LRU cell cache (0:
	// DefaultCacheCells; < 0: caching disabled). Ignored when Cache is
	// set.
	CacheCells int
	// Cache, when non-nil, replaces the built-in LRU — e.g. to share
	// one cache across servers. Cache stats are then absent from
	// Stats.
	Cache sweep.CellCache
	// Backend is the default simulation engine for jobs that don't
	// request one.
	Backend machine.Backend
	// RetainJobs bounds how many terminal jobs stay queryable; the
	// oldest-finished are evicted beyond it (0: DefaultRetainJobs).
	RetainJobs int
	// SuspendOnTimeout converts JobTimeout expiries into suspensions:
	// instead of cancelling at the next cell boundary and discarding
	// every completed cell, the job suspends there with a checkpoint and
	// can be resumed to finish the remainder. Off, the legacy behavior
	// applies: the job fails with *JobTimeoutError.
	SuspendOnTimeout bool
	// CheckpointDir, when non-empty, persists every suspended job's
	// checkpoint as <dir>/<id>.ckpt (written to a temp file, fsynced and
	// renamed, so a crash never leaves a torn checkpoint) and removes it
	// when the job reaches a terminal state. New scans the directory and
	// restores its suspended jobs — IDs included — so suspended work
	// survives a server restart; a file that fails to decode is renamed
	// to <id>.ckpt.corrupt and skipped.
	CheckpointDir string
	// Clock injects wall time; nil disables RatePerSec and JobTimeout.
	Clock Clock
}

// Typed admission, job-control and execution errors. Every type
// carries its ErrorKind — the HTTP layer derives the status code and
// wire kind from it, and errors.Is(err, Kind…) matches it — so
// embedded callers can dispatch by kind or by concrete type.
type (
	// QueueFullError rejects a submit when the job queue is at
	// capacity.
	QueueFullError struct{ Depth int }
	// RateLimitedError rejects a submit when the token bucket is
	// empty; RetryAfter estimates when a token will be available.
	RateLimitedError struct{ RetryAfter time.Duration }
	// ShuttingDownError rejects a submit after Shutdown began.
	ShuttingDownError struct{}
	// BadSpecError rejects a submit whose spec fails validation.
	BadSpecError struct{ Err error }
	// JobTimeoutError fails a job that exceeded Config.JobTimeout with
	// SuspendOnTimeout off.
	JobTimeoutError struct{ Timeout time.Duration }
	// UnknownJobError rejects a verb or query against an ID the server
	// does not hold.
	UnknownJobError struct{ ID string }
	// InvalidTransitionError rejects a job-control verb the job's
	// current state does not admit.
	InvalidTransitionError struct {
		ID   string
		From State
		Verb string
	}
	// CanceledError is the terminal error of a job ended by the cancel
	// verb.
	CanceledError struct{}
)

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server: job queue full (depth %d)", e.Depth)
}

func (e *QueueFullError) Kind() ErrorKind { return KindQueueFull }

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("server: admission rate limit exceeded (retry in %v)", e.RetryAfter)
}

func (e *RateLimitedError) Kind() ErrorKind { return KindRateLimited }

func (e *ShuttingDownError) Error() string { return "server: shutting down" }

func (e *ShuttingDownError) Kind() ErrorKind { return KindShuttingDown }

func (e *BadSpecError) Error() string { return "server: invalid spec: " + e.Err.Error() }

func (e *BadSpecError) Unwrap() error { return e.Err }

func (e *BadSpecError) Kind() ErrorKind { return KindBadSpec }

func (e *JobTimeoutError) Error() string {
	return fmt.Sprintf("server: job exceeded its %v timeout", e.Timeout)
}

func (e *JobTimeoutError) Kind() ErrorKind { return KindJobTimeout }

func (e *UnknownJobError) Error() string { return "server: unknown job " + e.ID }

func (e *UnknownJobError) Kind() ErrorKind { return KindUnknownJob }

func (e *InvalidTransitionError) Error() string {
	return fmt.Sprintf("server: cannot %s job %s in state %s", e.Verb, e.ID, e.From)
}

func (e *InvalidTransitionError) Kind() ErrorKind { return KindInvalidTransition }

func (e *CanceledError) Error() string { return "server: job canceled" }

func (e *CanceledError) Kind() ErrorKind { return KindCanceled }

// kindIs implements the shared Is logic: a typed error matches its own
// ErrorKind as an errors.Is target.
func kindIs(e kinded, target error) bool {
	k, ok := target.(ErrorKind)
	return ok && k == e.Kind()
}

func (e *QueueFullError) Is(target error) bool         { return kindIs(e, target) }
func (e *RateLimitedError) Is(target error) bool       { return kindIs(e, target) }
func (e *ShuttingDownError) Is(target error) bool      { return kindIs(e, target) }
func (e *BadSpecError) Is(target error) bool           { return kindIs(e, target) }
func (e *JobTimeoutError) Is(target error) bool        { return kindIs(e, target) }
func (e *UnknownJobError) Is(target error) bool        { return kindIs(e, target) }
func (e *InvalidTransitionError) Is(target error) bool { return kindIs(e, target) }
func (e *CanceledError) Is(target error) bool          { return kindIs(e, target) }

// Server is the sweep service engine. Construct with New; all methods
// are safe for concurrent use.
type Server struct {
	cfg   Config
	cache sweep.CellCache
	lru   *LRUCache // nil when Config.Cache replaced the built-in

	mu         sync.Mutex
	draining   bool
	queue      chan *Job
	jobs       map[string]*Job
	doneOrder  []string // terminal job IDs, oldest first, for retention eviction
	nextID     int
	tokens     float64
	lastRefill time.Time
	refilled   bool

	running     int
	suspended   int // jobs currently in StateSuspended
	submitted   int
	completed   int
	failed      int
	canceled    int
	rejQueue    int
	rejRate     int
	rejSpec     int
	cellsServed int
	quarantined int // corrupt checkpoint files moved aside by New

	wg sync.WaitGroup
}

// New builds a Server, applies Config defaults, and starts its
// MaxConcurrent worker goroutines. It fails when a time-dependent
// feature is configured without a Clock.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	if cfg.Clock == nil {
		if cfg.RatePerSec > 0 {
			return nil, fmt.Errorf("server: RatePerSec requires a Clock")
		}
		if cfg.JobTimeout > 0 {
			return nil, fmt.Errorf("server: JobTimeout requires a Clock")
		}
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.RatePerSec)
		if float64(cfg.Burst) < cfg.RatePerSec {
			cfg.Burst++
		}
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if !cfg.Backend.Known() {
		return nil, fmt.Errorf("server: unknown default backend %v", cfg.Backend)
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  map[string]*Job{},
	}
	if cfg.Cache != nil {
		s.cache = cfg.Cache
	} else if cfg.CacheCells >= 0 {
		n := cfg.CacheCells
		if n == 0 {
			n = DefaultCacheCells
		}
		s.lru = NewLRUCache(n)
		s.cache = s.lru
	}
	if cfg.RatePerSec > 0 {
		s.tokens = float64(cfg.Burst)
	}
	if err := s.restoreCheckpoints(); err != nil {
		return nil, err
	}
	s.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit validates and admits one sweep job. backend < 0 means the
// server's default. The returned Job is queued (or already running by
// the time the caller looks); rejections are the typed errors above
// and never block.
func (s *Server) Submit(spec *sweep.Spec, backend machine.Backend) (*Job, error) {
	if backend < 0 {
		backend = s.cfg.Backend
	}
	if !backend.Known() {
		return nil, &BadSpecError{Err: fmt.Errorf("unknown backend %v", backend)}
	}
	sp := *spec // shallow copy: the server owns its spec value
	cells, err := sp.Cells()
	if err != nil {
		s.mu.Lock()
		s.rejSpec++
		s.mu.Unlock()
		return nil, &BadSpecError{Err: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &ShuttingDownError{}
	}
	if err := s.admitLocked(); err != nil {
		s.rejRate++
		return nil, err
	}
	s.nextID++
	j := &Job{
		id:       "job-" + strconv.Itoa(s.nextID),
		spec:     &sp,
		backend:  backend,
		total:    len(cells),
		state:    StateQueued,
		finished: make(chan struct{}),
		subs:     map[int]chan Event{},
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.submitted++
		return j, nil
	default:
		s.rejQueue++
		return nil, &QueueFullError{Depth: cap(s.queue)}
	}
}

// admitLocked refills and drains the token bucket; caller holds s.mu.
func (s *Server) admitLocked() error {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	now := s.cfg.Clock.Now()
	if s.refilled {
		s.tokens += now.Sub(s.lastRefill).Seconds() * s.cfg.RatePerSec
		if burst := float64(s.cfg.Burst); s.tokens > burst {
			s.tokens = burst
		}
	}
	s.lastRefill, s.refilled = now, true
	if s.tokens < 1 {
		wait := time.Duration((1 - s.tokens) / s.cfg.RatePerSec * float64(time.Second))
		return &RateLimitedError{RetryAfter: wait}
	}
	s.tokens--
	return nil
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Suspend stops a job at its next cell boundary with a resumable
// checkpoint. A queued job suspends immediately (its checkpoint is
// empty — no cells ran yet — and its stale queue entry is defused by
// claimRun); a running job is asked asynchronously and transitions
// once its in-flight cells finish — poll Status or subscribe for the
// "suspended" event. Any other state is an *InvalidTransitionError.
func (s *Server) Suspend(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return &UnknownJobError{ID: id}
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		ck := &sweep.Checkpoint{Spec: *j.spec, Backend: j.backend}
		j.state = StateSuspended
		j.checkpoint = ck
		j.broadcastLocked(Event{Type: "state", State: StateSuspended.String(), Done: j.done, Total: j.total})
		j.mu.Unlock()
		s.mu.Lock()
		s.suspended++
		s.mu.Unlock()
		return s.persistCheckpoint(id, ck)
	case StateRunning:
		j.mu.Unlock()
		j.requestSuspend()
		return nil
	default:
		from := j.state
		j.mu.Unlock()
		return &InvalidTransitionError{ID: id, From: from, Verb: "suspend"}
	}
}

// Resume re-enqueues a suspended job; its next run attempt seeds the
// sweep with the checkpoint, so completed cells are not re-simulated
// and the final result is byte-identical to an uninterrupted run. The
// queue bound still applies (*QueueFullError), and a draining server
// refuses (*ShuttingDownError); the admission rate limit does not —
// the job was already admitted once.
func (s *Server) Resume(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return &UnknownJobError{ID: id}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &ShuttingDownError{}
	}
	j.mu.Lock()
	if j.state != StateSuspended {
		from := j.state
		j.mu.Unlock()
		s.mu.Unlock()
		return &InvalidTransitionError{ID: id, From: from, Verb: "resume"}
	}
	select {
	case s.queue <- j:
		j.state = StateQueued
		j.broadcastLocked(Event{Type: "state", State: StateQueued.String(), Done: j.done, Total: j.total})
		j.mu.Unlock()
		s.suspended--
		s.mu.Unlock()
		return nil
	default:
		j.mu.Unlock()
		depth := cap(s.queue)
		s.mu.Unlock()
		return &QueueFullError{Depth: depth}
	}
}

// Cancel terminates a job. Queued and suspended jobs cancel
// immediately (their persisted checkpoint, if any, is removed); a
// running job is asked asynchronously and fails over to
// StateCancelled at its next cell boundary. Terminal states reject
// with *InvalidTransitionError.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return &UnknownJobError{ID: id}
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateSuspended:
		wasSuspended := j.state == StateSuspended
		j.finishLocked(StateCancelled, nil, &CanceledError{})
		j.mu.Unlock()
		close(j.finished)
		s.mu.Lock()
		s.canceled++
		if wasSuspended {
			s.suspended--
		}
		s.mu.Unlock()
		s.retire(id)
		return nil
	case StateRunning:
		j.mu.Unlock()
		j.requestCancel()
		return nil
	default:
		from := j.state
		j.mu.Unlock()
		return &InvalidTransitionError{ID: id, From: from, Verb: "cancel"}
	}
}

// Shutdown stops admitting jobs (submits return *ShuttingDownError)
// and blocks until every already-admitted job — running and queued —
// has drained. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one run attempt of a job, publishing progress and
// enforcing the per-job timeout. Suspension, cancellation and timeout
// all act at the next cell boundary (cells are the stop granularity),
// so the worker is freed after at most one in-flight cell finishes. A
// stale queue entry — the job was suspended or cancelled while queued
// — fails the claim and is skipped.
func (s *Server) runJob(j *Job) {
	if !j.claimRun() {
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	opts := sweep.Options{
		Workers: s.cfg.SweepWorkers,
		Backend: j.backend,
		Cache:   s.cache,
		Suspend: j.suspendCh,
		Cancel:  j.cancelCh,
		Resume:  j.resumeSeed(),
		Progress: func(done, total int, r sweep.CellResult) {
			j.publishProgress(done, total, r)
		},
	}
	var timeout <-chan time.Time
	if s.cfg.JobTimeout > 0 {
		timeout = s.cfg.Clock.After(s.cfg.JobTimeout)
	}

	type outcome struct {
		res *sweep.Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := sweep.Run(j.spec, opts)
		resCh <- outcome{res, err}
	}()

	var out outcome
	timedOut := false
	if timeout == nil {
		out = <-resCh
	} else {
		select {
		case out = <-resCh:
		case <-timeout:
			timedOut = true
			if s.cfg.SuspendOnTimeout {
				// Keep the completed cells: suspend with a checkpoint
				// instead of cancelling and discarding them.
				j.requestSuspend()
			} else {
				j.requestCancel()
			}
			out = <-resCh // at most one cell still in flight
		}
	}

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.settle(j, out.res, out.err, timedOut)
}

// settle maps a run attempt's outcome onto the job's next state. The
// precedence when stop requests raced the run: a completed sweep
// always wins (nothing to discard or resume); then a suspension with
// its checkpoint; then the legacy timeout failure (a timeout closes
// the same cancel channel the cancel verb does, so it must be
// classified before the verb); then an explicit cancel.
func (s *Server) settle(j *Job, res *sweep.Result, err error, timedOut bool) {
	var se *sweep.SuspendedError
	switch {
	case err == nil:
		s.bump(func() { s.completed++; s.cellsServed += j.total })
		j.finish(StateDone, res, nil)
		s.retire(j.id)
	case errors.As(err, &se):
		if perr := s.persistCheckpoint(j.id, se.Checkpoint); perr != nil {
			// Suspending without the durability the operator configured
			// would silently break restart-resume; fail the job instead.
			s.bump(func() { s.failed++ })
			j.finish(StateFailed, nil, perr)
			s.retire(j.id)
			return
		}
		s.bump(func() { s.suspended++ })
		j.suspend(se.Checkpoint)
	case timedOut && !s.cfg.SuspendOnTimeout:
		s.bump(func() { s.failed++ })
		j.finish(StateFailed, nil, &JobTimeoutError{Timeout: s.cfg.JobTimeout})
		s.retire(j.id)
	case j.cancelRequested():
		s.bump(func() { s.canceled++ })
		j.finish(StateCancelled, nil, &CanceledError{})
		s.retire(j.id)
	default:
		s.bump(func() { s.failed++ })
		j.finish(StateFailed, nil, err)
		s.retire(j.id)
	}
}

// bump runs one counter update under the server lock.
func (s *Server) bump(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

// retire records a terminal job for retention accounting, deletes its
// persisted checkpoint (it is no longer resumable), and evicts the
// oldest terminal jobs beyond Config.RetainJobs.
func (s *Server) retire(id string) {
	s.removeCheckpoint(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Stats is a point-in-time snapshot of the server's admission,
// execution and cache counters.
type Stats struct {
	// QueueDepth is the configured bound; Queued and Running are the
	// jobs currently waiting and executing.
	QueueDepth int `json:"queue_depth"`
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	// Suspended counts jobs currently parked with a checkpoint.
	Suspended int `json:"suspended"`
	// Submitted counts admissions; Completed/Failed/Canceled are
	// terminal outcomes; the Rejected* counters split the refusals by
	// cause.
	Submitted     int `json:"submitted"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	Canceled      int `json:"canceled"`
	RejectedQueue int `json:"rejected_queue_full"`
	RejectedRate  int `json:"rejected_rate_limited"`
	RejectedSpec  int `json:"rejected_bad_spec"`
	// CellsServed totals the grid cells of completed jobs (hits and
	// misses alike).
	CellsServed int `json:"cells_served"`
	// CheckpointsQuarantined counts the checkpoint files New found
	// corrupt and renamed to <id>.ckpt.corrupt instead of restoring.
	CheckpointsQuarantined int `json:"checkpoints_quarantined"`
	// Jobs is the number of jobs currently queryable by ID.
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
	// Cache reports the built-in LRU (absent when a custom Cache or
	// CacheCells < 0 is configured).
	Cache *CacheStats `json:"cache,omitempty"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth:    cap(s.queue),
		Queued:        len(s.queue),
		Running:       s.running,
		Suspended:     s.suspended,
		Submitted:     s.submitted,
		Completed:     s.completed,
		Failed:        s.failed,
		Canceled:      s.canceled,
		RejectedQueue: s.rejQueue,
		RejectedRate:  s.rejRate,
		RejectedSpec:  s.rejSpec,
		CellsServed:   s.cellsServed,
		Jobs:          len(s.jobs),
		Draining:      s.draining,

		CheckpointsQuarantined: s.quarantined,
	}
	s.mu.Unlock()
	if s.lru != nil {
		cs := s.lru.Stats()
		st.Cache = &cs
	}
	return st
}
