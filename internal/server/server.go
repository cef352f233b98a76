// Package server is the experiment-serving daemon: a long-running HTTP
// JSON service that accepts experiment jobs against the
// experiments.Registry, runs them on a bounded worker pool, memoizes
// results in a content-addressed cache, and exposes live metrics.
//
// API (every response is a versioned Envelope — see envelope.go; the
// pre-envelope wire format is served under "Accept-Version: 2024-01"):
//
//	GET  /v1/experiments                registry metadata (names, descriptions, defaults)
//	POST /v1/jobs                       submit {"experiment": "...", "params": {...}}
//	                                    or {"from_checkpoint": {"job": "...", "k": N}}
//	GET  /v1/jobs                       list submitted jobs (no result payloads)
//	GET  /v1/jobs/{id}                  one job, result included; ?wait=5s blocks
//	                                    ("Accept: application/x-ndjson" streams
//	                                    keep-alive progress frames while waiting)
//	POST /v1/points                     run one decomposed sweep point (fabric workers)
//	POST /v1/jobs/{id}/checkpoints      capture {"every_iters": N} checkpoint stream
//	GET  /v1/jobs/{id}/checkpoints      the job's stream metadata
//	GET  /v1/jobs/{id}/checkpoints/{k}  inspect machine state at checkpoint k
//	GET  /metrics                       flat "name value" metric exposition
//	GET  /healthz                       liveness
//
// Identical work never runs twice: a submitted job is first looked up in
// the cache by the canonical hash of its fully-resolved configuration
// (see key.go), and a miss that matches an already-queued or running job
// coalesces with it single-flight style. Shutdown is graceful — the
// queue drains, results flush to the cache — with a deadline after which
// in-flight sweeps are cancelled through the experiment layer's context
// plumbing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// DefaultJobTimeout is the per-job execution deadline applied when
// neither Config.JobTimeout nor the job's params set one. Generous —
// paper-scale sweeps take minutes — but finite, so a stuck sweep can
// never pin a worker forever.
const DefaultJobTimeout = 15 * time.Minute

// shutdownRetryAfter is the Retry-After hint on submissions rejected
// during drain: long enough for a load balancer to route elsewhere.
const shutdownRetryAfter = 5 * time.Second

// Config configures a Server. The zero value serves the full experiment
// registry from a memory-only cache with experiments.DefaultJobWorkers
// workers.
type Config struct {
	// Workers bounds how many jobs execute concurrently (each job's
	// sweep additionally parallelizes internally via the experiment
	// pool). Default: experiments.DefaultJobWorkers().
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// submissions beyond it are rejected with ErrQueueFull. Default: 64.
	QueueDepth int
	// CacheDir persists the result cache under this directory; empty
	// keeps it in memory only.
	CacheDir string
	// Experiments overrides the served experiment set (tests inject
	// synthetic experiments here). Default: experiments.Registry().
	Experiments []experiments.Experiment
	// Metrics receives the server's counters and gauges. Default: a
	// fresh registry.
	Metrics *metrics.Synced
	// JobTimeout is the execution deadline applied to jobs whose params
	// leave TimeoutMS zero. 0 means DefaultJobTimeout; negative
	// disables the server default (jobs may still set their own).
	JobTimeout time.Duration
	// Faults wires a fault injector through the serving pipeline's
	// injection sites (see FaultSites). Nil — the default — disables
	// injection at no cost. Tests and the cascade-server -faults dev
	// flag are the only intended users.
	Faults *faults.Injector
	// FaultSpec and FaultSeed record what Faults was parsed from, so
	// repro bundles (repro.go) can carry the exact injection
	// configuration as a replayable input. Informational: they arm
	// nothing themselves.
	FaultSpec string
	FaultSeed int64
	// ProgressInterval is the keep-alive cadence of streaming ?wait
	// responses (see stream.go). Default: DefaultProgressInterval.
	ProgressInterval time.Duration
	// QuarantineTTL ages out stale .corrupt quarantine files from the
	// disk cache at startup (cache.quarantine_purged counts removals).
	// 0 means DefaultQuarantineTTL; negative disables the sweep.
	QuarantineTTL time.Duration
	// WarmPrefixes enables worker-side prefix-snapshot reuse for shipped
	// points: a point whose decomposition declares a shared warm prefix
	// executes against a sealed machine snapshot from a bounded LRU
	// instead of rebuilding the sweep prefix. Byte-identical results
	// either way (the experiments layer pins the RunWarm contract) —
	// purely a wall-clock optimization for prefix-heavy sweeps.
	WarmPrefixes bool
	// PrefixCacheBytes bounds the warm-prefix snapshot LRU by estimated
	// retained bytes; 0 uses experiments.DefaultPrefixCacheBytes. Only
	// meaningful with WarmPrefixes.
	PrefixCacheBytes int64
}

// Server is the serving daemon. Create with New, expose Handler over
// HTTP, stop with Shutdown.
type Server struct {
	metrics      *metrics.Synced
	cache        *Cache
	exps         map[string]experiments.Experiment
	infos        []experiments.Info
	jobTimeout   time.Duration
	faults       *faults.Injector
	faultSpec    string
	faultSeed    int64
	progressTick time.Duration
	prefixCache  *experiments.PrefixCache // nil unless Config.WarmPrefixes

	runCtx    context.Context
	cancelRun context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup // workers + follower waiters

	// Point-execution admission (POST /v1/points; see point.go): at most
	// cap(pointSem) points run concurrently, at most pointAdmitMax are
	// admitted (running + waiting) before the endpoint sheds load.
	pointSem      chan struct{}
	pointAdmitted atomic.Int64
	pointAdmitMax int

	mu       sync.Mutex
	closed   bool
	nextID   int
	jobs     map[string]*job // queued, running and the newest finished jobs
	finished []*job          // finished jobs still in jobs, oldest first
	inflight map[string]*job // cache key → queued/running leader

	// Checkpoint streams (in-memory only — they hold live copy-on-write
	// machine and space state; see checkpoints.go).
	ckMu    sync.Mutex
	ckByKey map[string]*checkpointStream // content address → stream
	ckByJob map[string]*checkpointStream // job id → its current stream

	streamTickHook func() // tests only: see JobStream.afterTick
}

// maxFinishedJobs bounds the job table: the newest this-many finished
// jobs stay addressable by ID, older ones are forgotten (their IDs
// answer 404 not_found; resubmitting one is a cache hit). Queued and
// running jobs are never forgotten.
const maxFinishedJobs = 1024

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = experiments.DefaultJobWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Experiments == nil {
		cfg.Experiments = experiments.Registry()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewSynced()
	}
	switch {
	case cfg.JobTimeout == 0:
		cfg.JobTimeout = DefaultJobTimeout
	case cfg.JobTimeout < 0:
		cfg.JobTimeout = 0 // no server default
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = DefaultProgressInterval
	}
	initMetrics(cfg.Metrics)
	cache, err := NewCache(cfg.CacheDir, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	cache.WithFaults(cfg.Faults)
	if cfg.QuarantineTTL == 0 {
		cfg.QuarantineTTL = DefaultQuarantineTTL
	}
	if cfg.QuarantineTTL > 0 {
		cache.PurgeQuarantine(cfg.QuarantineTTL)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		metrics:       cfg.Metrics,
		cache:         cache,
		progressTick:  cfg.ProgressInterval,
		exps:          make(map[string]experiments.Experiment, len(cfg.Experiments)),
		jobTimeout:    cfg.JobTimeout,
		faults:        cfg.Faults,
		faultSpec:     cfg.FaultSpec,
		faultSeed:     cfg.FaultSeed,
		runCtx:        runCtx,
		cancelRun:     cancel,
		queue:         make(chan *job, cfg.QueueDepth),
		pointSem:      make(chan struct{}, cfg.Workers),
		pointAdmitMax: cfg.Workers + cfg.QueueDepth,
		jobs:          make(map[string]*job),
		inflight:      make(map[string]*job),
		ckByKey:       make(map[string]*checkpointStream),
		ckByJob:       make(map[string]*checkpointStream),
		nextID:        1,
	}
	if cfg.WarmPrefixes {
		s.prefixCache = experiments.NewPrefixCache(cfg.PrefixCacheBytes)
	}
	for _, e := range cfg.Experiments {
		if _, dup := s.exps[e.Name]; dup {
			cancel()
			return nil, fmt.Errorf("server: duplicate experiment %q", e.Name)
		}
		s.exps[e.Name] = e
		s.infos = append(s.infos, e.Info())
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Shutdown stops the server gracefully: new submissions are rejected,
// the queue drains (queued and running jobs finish and their results
// flush to the cache), and the worker pool exits. If ctx expires before
// the drain completes, the run context is cancelled — the experiment
// layer stops dispatching new simulation points, in-flight points
// finish, and the affected jobs fail with the cancellation error — and
// Shutdown returns ctx's error after the pool exits. A nil return means
// every accepted job ran to completion.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.cancelRun()
		<-drained
		err = ctx.Err()
	}
	s.cancelRun()
	return err
}

// Experiments returns the served experiments' metadata, sorted by name.
func (s *Server) Experiments() []experiments.Info {
	return s.infos
}

// Metrics returns a snapshot of the server's metrics.
func (s *Server) Metrics() metrics.Snapshot {
	return s.metrics.Snapshot()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/repro", s.handleRepro)
	mux.HandleFunc("POST /v1/points", s.handlePoint)
	mux.HandleFunc("POST /v1/jobs/{id}/checkpoints", s.handleCheckpointCreate)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints", s.handleCheckpointList)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints/{k}", s.handleCheckpointGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Draining reports whether Shutdown has begun (submissions are being
// rejected while queued and running jobs finish).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// QueueDepth returns how many accepted jobs are waiting for a worker.
func (s *Server) QueueDepth() int {
	return len(s.queue)
}

// handleHealthz is the liveness/readiness probe. One word of body:
//
//	ok        200  serving normally
//	degraded  200  serving, but the disk cache is erroring (results
//	               are still computed and served memory-only)
//	draining  503  shutdown begun: stop routing new traffic here
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case s.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.cache.Healthy():
		status = "degraded"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	ver, err := requestVersion(r)
	if err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if ver == LegacyAPIVersion {
		WriteJSON(w, http.StatusOK, map[string]interface{}{"experiments": s.infos})
		return
	}
	WriteEnvelope(w, http.StatusOK, Envelope{Experiments: s.infos})
}

// submitRequest is the POST /v1/jobs body: either an experiment to run
// or a checkpoint to resume from (mutually exclusive).
type submitRequest struct {
	Experiment     string         `json:"experiment,omitempty"`
	Params         JobParams      `json:"params"`
	FromCheckpoint *CheckpointRef `json:"from_checkpoint,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ver, err := requestVersion(r)
	if err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeSubmitError(w, ver, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.FromCheckpoint != nil {
		s.handleSubmitResume(w, ver, req)
		return
	}
	v, err := s.Submit(req.Experiment, req.Params)
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		s.writeSubmitError(w, ver, http.StatusNotFound, CodeNotFound, err)
	case errors.Is(err, ErrQueueFull):
		// Load shedding, not a bare error: Retry-After tells well-behaved
		// clients to back off, and the queue depth in the body tells them
		// how bad it is.
		w.Header().Set("Retry-After", "1")
		depth := s.QueueDepth()
		if ver == LegacyAPIVersion {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
				"error":       err.Error(),
				"queue_depth": depth,
			})
			return
		}
		WriteEnvelope(w, http.StatusServiceUnavailable, Envelope{
			Error:      &APIError{Code: CodeQueueFull, Message: err.Error()},
			QueueDepth: &depth,
		})
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", strconv.Itoa(int(shutdownRetryAfter/time.Second)))
		s.writeSubmitError(w, ver, http.StatusServiceUnavailable, CodeShuttingDown, err)
	case err != nil:
		s.writeSubmitError(w, ver, http.StatusBadRequest, CodeBadRequest, err)
	case v.State == StateDone:
		s.writeJob(w, ver, http.StatusOK, v) // served from cache at submit time
	default:
		s.writeJob(w, ver, http.StatusAccepted, v)
	}
}

// handleSubmitResume serves the from_checkpoint form of POST /v1/jobs.
// Checkpoint references are a current-API feature: legacy-version
// requests are refused rather than answered in a shape that never
// existed.
func (s *Server) handleSubmitResume(w http.ResponseWriter, ver string, req submitRequest) {
	if ver == LegacyAPIVersion {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("from_checkpoint requires %s %s", VersionHeader, APIVersion))
		return
	}
	if req.Experiment != "" {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
			"experiment and from_checkpoint are mutually exclusive")
		return
	}
	v, err := s.SubmitResume(*req.FromCheckpoint)
	if errors.Is(err, ErrShuttingDown) {
		w.Header().Set("Retry-After", strconv.Itoa(int(shutdownRetryAfter/time.Second)))
		WriteEnvelopeError(w, http.StatusServiceUnavailable, CodeShuttingDown, err.Error())
		return
	}
	if err != nil {
		writeCodedError(w, err)
		return
	}
	WriteEnvelope(w, http.StatusOK, JobEnvelope(v))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	ver, err := requestVersion(r)
	if err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	jobs := s.Jobs()
	if ver == LegacyAPIVersion {
		for i := range jobs {
			jobs[i] = legacyView(jobs[i])
		}
		WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": jobs})
		return
	}
	WriteEnvelope(w, http.StatusOK, Envelope{Jobs: jobs})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	ver, verErr := requestVersion(r)
	if verErr != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, verErr.Error())
		return
	}
	id := r.PathValue("id")
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			s.writeSubmitError(w, ver, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad wait duration %q", raw))
			return
		}
		wait = d
	}
	if ver == APIVersion && WantsNDJSON(r) {
		s.streamJob(w, r, id, wait)
		return
	}
	v, ok := s.Await(id, wait, r.Context().Done())
	if !ok {
		s.writeSubmitError(w, ver, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if ver == LegacyAPIVersion {
		writeLegacyJob(w, http.StatusOK, v)
		return
	}
	env := JobEnvelope(v)
	// A request cancelled while waiting gets a terminal typed error, not
	// a bare 200 with a partial body the client must diagnose.
	if env.Error == nil && v.State != StateDone && r.Context().Err() != nil {
		env.Error = &APIError{Code: CodeCancelled,
			Message: fmt.Sprintf("request cancelled while waiting for job %q", id)}
	}
	WriteEnvelope(w, http.StatusOK, env)
}

// writeJob renders a job response in the requested wire format.
func (s *Server) writeJob(w http.ResponseWriter, ver string, status int, v JobView) {
	if ver == LegacyAPIVersion {
		writeLegacyJob(w, status, v)
		return
	}
	WriteEnvelope(w, status, JobEnvelope(v))
}

// writeLegacyJob writes the legacy unwrapped job body. Its result is the
// job's last field, spliced in verbatim exactly as WriteEnvelope does.
func writeLegacyJob(w http.ResponseWriter, status int, v JobView) {
	v = legacyView(v)
	result := v.Result
	v.Result = nil
	writeBody(w, status, v, result)
}

// writeSubmitError renders an error in the requested wire format: a
// typed envelope error, or the legacy {"error": "<message>"} object.
func (s *Server) writeSubmitError(w http.ResponseWriter, ver string, status int, code string, err error) {
	if ver == LegacyAPIVersion {
		writeError(w, status, err)
		return
	}
	WriteEnvelopeError(w, status, code, err.Error())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeMetrics(w, s.metrics.Snapshot())
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
