package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/experiments"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrUnknownExperiment is returned for a name the registry lacks.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrQueueFull is returned when the bounded job queue is at capacity.
	ErrQueueFull = errors.New("job queue full")
	// ErrShuttingDown is returned for submissions after Shutdown began.
	ErrShuttingDown = errors.New("server shutting down")
)

// Submit accepts one experiment job. Zero-valued parameters are resolved
// to the registry defaults before anything else, so the content-addressed
// key always reflects fully-resolved parameters. The result is one of:
//
//   - cache hit: the job completes immediately with the stored bytes —
//     no simulation runs, no queue slot is consumed;
//   - coalesced: an identical job (same key) is already queued or
//     running, so this job attaches to it and completes when it does —
//     concurrent duplicate submissions share one simulation;
//   - queued: the job takes a queue slot and a worker will run it.
//
// The returned view reflects the job's state at return; poll Job (or
// await it) for completion.
func (s *Server) Submit(experiment string, p JobParams) (JobView, error) {
	e, ok := s.exps[experiment]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, experiment)
	}
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return JobView{}, err
	}
	jobKey, err := JobKey(experiment, p)
	if err != nil {
		return JobView{}, err
	}
	key := RenderKey(jobKey, "json")
	if p.TimeoutMS == 0 {
		p.TimeoutMS = int(s.jobTimeout / time.Millisecond)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.metrics.Inc(mJobsRejected)
		return JobView{}, ErrShuttingDown
	}
	// Counted only once a submission is accepted (a job record exists),
	// so jobs.submitted = jobs.completed + jobs.failed + in-flight jobs
	// holds at every instant; shutdown rejections count only in
	// jobs.rejected.
	s.metrics.Inc(mJobsSubmitted)
	j := &job{
		experiment: e.Name,
		params:     p,
		key:        key,
		state:      StateQueued,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	s.admitLocked(j)

	if leader, ok := s.inflight[key]; ok {
		j.coalesced = true
		s.metrics.Inc(mJobsCoalesced)
		s.wg.Add(1)
		go s.follow(j, leader)
		return j.view(true), nil
	}
	if val, ok := s.cache.Get(key); ok {
		s.finishHitLocked(j, val)
		return j.view(true), nil
	}
	select {
	case s.queue <- j:
		s.inflight[key] = j
		depth := int64(len(s.queue))
		s.metrics.Set(mQueueDepth, depth)
		s.metrics.Max(mQueuePeak, depth)
	default:
		s.finishLocked(j, nil, ErrQueueFull)
		s.metrics.Inc(mJobsRejected)
		return j.view(true), ErrQueueFull
	}
	return j.view(true), nil
}

// admitLocked assigns j the next ID and enters it in the job table.
// Callers must hold the server mutex.
func (s *Server) admitLocked(j *job) {
	j.seq = s.nextID
	j.id = fmt.Sprintf("j%d", j.seq)
	s.nextID++
	s.jobs[j.id] = j
}

// lookup returns the job an ID names, if the table still holds it.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// viewOf renders a job the caller already holds, whether or not the
// table has since forgotten it.
func (s *Server) viewOf(j *job, withResult bool) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.view(withResult)
}

// Job returns the view of a submitted job (false when the id is unknown
// or its finished job has aged out of the table; see maxFinishedJobs).
func (s *Server) Job(id string) (JobView, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobView{}, false
	}
	return s.viewOf(j, true), true
}

// Jobs returns every job the table holds in submission order, without
// result payloads.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]JobView, len(js))
	for i, j := range js {
		out[i] = j.view(false)
	}
	return out
}

// Await blocks until the job finishes, the timeout elapses (0 = return
// immediately), or cancel is closed/ready; it then returns the current
// view. A job found at entry is answered even if it ages out of the
// table while the caller waits.
func (s *Server) Await(id string, timeout time.Duration, cancel <-chan struct{}) (JobView, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobView{}, false
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-cancel:
		}
	}
	return s.viewOf(j, true), true
}

// follow completes a coalesced follower when its leader finishes: the
// follower adopts the leader's result or error. The leader always closes
// done — success, failure, or shutdown cancellation — so followers never
// leak.
func (s *Server) follow(j, leader *job) {
	defer s.wg.Done()
	<-leader.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if leader.state == StateDone {
		s.finishLocked(j, leader.result, nil)
	} else {
		// Re-wrap so the follower inherits the leader's typed code, not
		// just its message.
		s.finishLocked(j, nil, &codedError{code: leader.errCode, err: errors.New(leader.errMsg)})
	}
}

// worker drains the job queue until it is closed and empty. The pool
// self-heals: a panic that escapes a job (runJob already converts
// experiment panics into job failures, so this is the last resort for
// bookkeeping bugs) respawns a replacement worker before this one
// exits, and the escaped job is still moved to a terminal state.
func (s *Server) worker() {
	defer s.wg.Done()
	var cur *job
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mWorkerRestarts)
			if cur != nil {
				s.mu.Lock()
				delete(s.inflight, cur.key)
				if cur.state == StateQueued || cur.state == StateRunning {
					s.finishLocked(cur, nil, fmt.Errorf("worker panicked: %v", r))
				}
				s.mu.Unlock()
			}
			s.wg.Add(1) // before Done (deferred later = runs first): never strands Shutdown's Wait
			go s.worker()
		}
	}()
	for j := range s.queue {
		cur = j
		s.metrics.Set(mQueueDepth, int64(len(s.queue)))
		s.runJob(j)
		cur = nil
	}
}

// runJob executes one leader job: run the experiment under the server's
// run context (bounded by the job's deadline), render the result to
// JSON, store it in the cache, and finish the job (waking any
// followers). Every failure mode is absorbed here:
//
//   - a panic anywhere in execution fails only this job, with the stack
//     in its error (jobs.panics);
//   - the per-job deadline cancels the experiment's context so a stuck
//     sweep cannot pin the worker forever (jobs.timeouts);
//   - a cache write failure degrades: the computed result is served and
//     the job succeeds (cache.write_errors counts the loss).
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()
	s.metrics.Add(mTimeQueued, j.started.Sub(j.created).Nanoseconds())
	s.metrics.Inc(mJobsExecuted)

	ctx := experiments.WithPointProgress(s.runCtx, func(done, total int) {
		j.pointsDone.Store(int64(done))
		j.pointsTotal.Store(int64(total))
	})
	timeout := time.Duration(j.params.TimeoutMS) * time.Millisecond
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	val, err := s.execute(ctx, j)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && s.runCtx.Err() == nil {
		s.metrics.Inc(mJobsTimeouts)
		err = fmt.Errorf("job exceeded its %v deadline: %w", timeout, err)
	}
	if err == nil {
		// Degrade, don't fail, when the write is lost: the result exists
		// and followers are waiting on it; only the disk copy is missing
		// (cache.write_errors and Healthy() record the loss).
		_ = s.storeResult(ctx, j.key, val)
	}

	s.mu.Lock()
	delete(s.inflight, j.key)
	s.finishLocked(j, val, err)
	s.mu.Unlock()
	s.metrics.Add(mTimeRun, j.finished.Sub(j.started).Nanoseconds())
}

// execute runs a job's experiment and renders the result, converting a
// panic — an experiment bug, or the injected SiteExpPanic — into an
// error carrying the stack. Panics on sweep-worker goroutines inside
// parallelFor are converted to point errors by the experiments package,
// so this recover plus that one cover both panic surfaces.
func (s *Server) execute(ctx context.Context, j *job) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc(mJobsPanics)
			err = &codedError{code: CodePanic, err: fmt.Errorf("experiment panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	if s.faults.Check(SiteExpPanic) {
		panic(fmt.Sprintf("injected panic (site %s)", SiteExpPanic))
	}
	if s.faults.Check(SiteExpStall) {
		<-ctx.Done() // a sweep that never dispatches another point
		return nil, ctx.Err()
	}
	e := s.exps[j.experiment]
	r, err := e.Run(ctx, j.params.RunConfig())
	if err != nil {
		return nil, err
	}
	return RenderJSON(r)
}

// Cache-write retry policy: transient disk failures (ENOSPC races,
// network filesystems) get a few bounded, jittered, context-aware
// retries before the server degrades to serving the result memory-only.
const (
	putAttempts    = 3
	putBackoffBase = 5 * time.Millisecond
)

// storeResult writes a finished job's bytes to the cache, retrying
// transient failures with exponential backoff and jitter. It stops
// early when ctx is done (shutdown or the job deadline: the result is
// already computed, so the caller still serves it). The error return is
// advisory — every attempt already counted in cache.write_errors, and
// callers degrade rather than fail.
func (s *Server) storeResult(ctx context.Context, key string, val []byte) error {
	backoff := putBackoffBase
	var err error
	for attempt := 1; ; attempt++ {
		err = s.cache.Put(key, val)
		if err == nil || attempt == putAttempts {
			return err
		}
		s.metrics.Inc(mCacheWriteRetries)
		jitter := time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(backoff + jitter):
		case <-ctx.Done():
			return err
		}
		backoff *= 2
	}
}

// finishHitLocked completes a job from cache bytes. Those are the only
// result bytes a job takes from outside the process — computed results
// come from json.Encoder, and followers adopt their leader's — so this
// is where the one ValidResult check per job runs (responses splice
// result bytes verbatim; see writeBody). The check runs with the server
// mutex released: scanning a large result costs more than the rest of a
// hit, and every other request needs the mutex. Callers hold the mutex
// and get it back held; meanwhile the job stays queued.
func (s *Server) finishHitLocked(j *job, val []byte) {
	j.cached = true
	s.metrics.Inc(mJobsCacheHits)
	s.mu.Unlock()
	err := ValidResult(val)
	s.mu.Lock()
	s.finishLocked(j, val, err)
}

// finishLocked moves a job to its terminal state, wakes waiters, and
// retires the job into the bounded finished list. Callers must hold the
// server mutex.
func (s *Server) finishLocked(j *job, val []byte, err error) {
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.errCode = errorCode(err)
		s.metrics.Inc(mJobsFailed)
	} else {
		j.state = StateDone
		j.result = val
		s.metrics.Inc(mJobsCompleted)
	}
	close(j.done)

	s.finished = append(s.finished, j)
	if len(s.finished) > maxFinishedJobs {
		old := s.finished[0]
		s.finished[0] = nil // let the backing array drop it
		s.finished = s.finished[1:]
		delete(s.jobs, old.id)
		s.ckMu.Lock()
		delete(s.ckByJob, old.id)
		s.ckMu.Unlock()
	}
}

// RenderJSON renders an experiment result exactly as cascade-sim's -json
// mode does (indented, trailing newline), so CLI sweeps and the server
// produce — and therefore share — byte-identical cache entries.
func RenderJSON(r experiments.Renderable) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
