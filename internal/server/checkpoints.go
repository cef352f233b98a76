package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
)

// Checkpoint streams are in-memory only: a stream holds copy-on-write
// references into the live address space of its capture run, which has no
// meaningful disk form. Resume RESULTS, by contrast, are ordinary bytes
// and go through the content-addressed result cache like any job's.
//
// quickstart is the one checkpointable experiment: its prefetched
// scatter-add run is a single cascaded loop, which is what a checkpoint
// stream captures. Sweep experiments aggregate many runs and have no
// single timeline to checkpoint.

// checkpointStream is one captured stream plus the live run it can
// resume. mu serializes resumes: each resume rewinds the run's shared
// address space in place before re-executing the tail.
type checkpointStream struct {
	key        string // CheckpointKey(jobKey, every)
	jobID      string // job the capture was requested for (first owner)
	experiment string
	every      int

	mu  sync.Mutex
	run *experiments.QuickstartCheckpointRun
}

// view renders the stream's metadata.
func (cs *checkpointStream) view(cached bool) *CheckpointStreamView {
	v := &CheckpointStreamView{
		Key:        cs.key,
		Job:        cs.jobID,
		EveryIters: cs.every,
		Count:      len(cs.run.Checkpoints),
		Cached:     cached,
	}
	for _, ck := range cs.run.Checkpoints {
		v.Iters = append(v.Iters, ck.Iter)
	}
	return v
}

// CheckpointStreamView is a stream's client-facing form: its content
// address, owner, cadence, and the iteration mark of every checkpoint.
type CheckpointStreamView struct {
	Key        string `json:"key"`
	Job        string `json:"job"`
	EveryIters int    `json:"every_iters"`
	Count      int    `json:"count"`
	Iters      []int  `json:"iters"`
	// Cached reports that an existing content-addressed stream was
	// reused instead of capturing a new one.
	Cached bool `json:"cached,omitempty"`
}

// CheckpointView is one checkpoint rendered for inspection: where the run
// stood and the machine state at that instant, drawn from the sealed
// snapshot without rebuilding a machine.
type CheckpointView struct {
	Key       string          `json:"key"`
	Index     int             `json:"index"`
	Iter      int             `json:"iter"`
	NextChunk int             `json:"next_chunk"`
	Time      int64           `json:"time"`
	State     machine.Inspect `json:"state"`
}

// CheckpointRef names a checkpoint: index K of the stream owned by Job.
// POST /v1/jobs accepts one as "from_checkpoint" to submit a warm-started
// resume job.
type CheckpointRef struct {
	Job string `json:"job"`
	K   int    `json:"k"`
}

// checkpointCreateRequest is the POST /v1/jobs/{id}/checkpoints body.
type checkpointCreateRequest struct {
	// EveryIters is the capture cadence in loop iterations; 0 captures at
	// every chunk boundary.
	EveryIters int `json:"every_iters"`
}

// checkpointJob looks up the job a checkpoint route names and validates
// it is checkpointable, returning a typed error otherwise.
func (s *Server) checkpointJob(id string) (*job, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, &codedError{code: CodeNotFound, err: fmt.Errorf("unknown job %q", id)}
	}
	if j.experiment != "quickstart" {
		return nil, &codedError{code: CodeBadRequest,
			err: fmt.Errorf("experiment %q is not checkpointable (only quickstart's single-loop run is)", j.experiment)}
	}
	return j, nil
}

// streamFor returns the stream currently attached to a job.
func (s *Server) streamFor(jobID string) *checkpointStream {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	return s.ckByJob[jobID]
}

// handleCheckpointCreate captures (or reuses) a checkpoint stream for a
// quickstart job. The capture re-runs the job's prefetched loop with a
// checkpoint sink — deterministic, so the stream describes the job's own
// run exactly — and the stream is stored under its content address:
// a second job with the same key, or the same job with the same cadence,
// reuses it without simulating.
//
// Checkpoint endpoints speak only the current envelope format.
func (s *Server) handleCheckpointCreate(w http.ResponseWriter, r *http.Request) {
	j, err := s.checkpointJob(r.PathValue("id"))
	if err != nil {
		writeCodedError(w, err)
		return
	}
	var req checkpointCreateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.EveryIters < 0 {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("every_iters %d (want >= 0)", req.EveryIters))
		return
	}

	jobKey, err := JobKey(j.experiment, j.params)
	if err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	ckKey := CheckpointKey(jobKey, req.EveryIters)

	s.ckMu.Lock()
	if cs, ok := s.ckByKey[ckKey]; ok {
		s.ckByJob[j.id] = cs
		s.ckMu.Unlock()
		s.metrics.Inc(mCkptReused)
		WriteEnvelope(w, http.StatusOK, Envelope{Checkpoints: cs.view(true)})
		return
	}
	s.ckMu.Unlock()

	// Capture outside the lock: it simulates the whole run.
	rc := j.params.RunConfig()
	run, err := experiments.QuickstartCheckpoints(s.runCtx,
		experiments.QuickstartScaledN(rc.Scale), rc.ChunkBytes, req.EveryIters)
	if err != nil {
		WriteEnvelopeError(w, http.StatusInternalServerError, errorCode(err), err.Error())
		return
	}
	cs := &checkpointStream{key: ckKey, jobID: j.id, experiment: j.experiment, every: req.EveryIters, run: run}

	s.ckMu.Lock()
	if prior, ok := s.ckByKey[ckKey]; ok {
		cs = prior // lost a capture race: first stream wins
	} else {
		s.ckByKey[ckKey] = cs
	}
	s.ckByJob[j.id] = cs
	s.ckMu.Unlock()
	s.metrics.Inc(mCkptCaptured)
	WriteEnvelope(w, http.StatusCreated, Envelope{Checkpoints: cs.view(false)})
}

// handleCheckpointList returns the stream attached to a job.
func (s *Server) handleCheckpointList(w http.ResponseWriter, r *http.Request) {
	j, err := s.checkpointJob(r.PathValue("id"))
	if err != nil {
		writeCodedError(w, err)
		return
	}
	cs := s.streamFor(j.id)
	if cs == nil {
		WriteEnvelopeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("job %q has no checkpoint stream (POST .../checkpoints first)", j.id))
		return
	}
	WriteEnvelope(w, http.StatusOK, Envelope{Checkpoints: cs.view(false)})
}

// handleCheckpointGet renders one checkpoint of a job's stream for
// time-travel inspection: the machine occupancy, coherence totals, and
// metric state at that iteration.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.checkpointJob(r.PathValue("id"))
	if err != nil {
		writeCodedError(w, err)
		return
	}
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("bad checkpoint index %q", r.PathValue("k")))
		return
	}
	cs := s.streamFor(j.id)
	if cs == nil {
		WriteEnvelopeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("job %q has no checkpoint stream", j.id))
		return
	}
	if k < 0 || k >= len(cs.run.Checkpoints) {
		WriteEnvelopeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no checkpoint %d (stream has %d)", k, len(cs.run.Checkpoints)))
		return
	}
	ck := cs.run.Checkpoints[k]
	WriteEnvelope(w, http.StatusOK, Envelope{Checkpoint: &CheckpointView{
		Key:       cs.key,
		Index:     k,
		Iter:      ck.Iter,
		NextChunk: ck.NextChunk,
		Time:      ck.Time,
		State:     ck.Snap.Inspect(),
	}})
}

// SubmitResume accepts a warm-started job: resume the named stream from
// checkpoint k and serve the completed run's Result. The result is
// content-addressed under ResumeKey, so identical resumes — across jobs
// sharing a stream — are cache hits that never re-simulate. The returned
// error covers submission problems only; an execution failure is terminal
// state on the returned view.
func (s *Server) SubmitResume(ref CheckpointRef) (JobView, error) {
	cs := s.streamFor(ref.Job)
	if cs == nil {
		return JobView{}, &codedError{code: CodeNotFound,
			err: fmt.Errorf("job %q has no checkpoint stream", ref.Job)}
	}
	if ref.K < 0 || ref.K >= len(cs.run.Checkpoints) {
		return JobView{}, &codedError{code: CodeNotFound,
			err: fmt.Errorf("no checkpoint %d (stream has %d)", ref.K, len(cs.run.Checkpoints))}
	}
	key := RenderKey(ResumeKey(cs.key, ref.K), "json")

	s.mu.Lock()
	if s.closed {
		s.metrics.Inc(mJobsRejected)
		s.mu.Unlock()
		return JobView{}, ErrShuttingDown
	}
	parent, ok := s.jobs[ref.Job]
	if !ok { // aged out of the table since streamFor found its stream
		s.mu.Unlock()
		return JobView{}, &codedError{code: CodeNotFound, err: fmt.Errorf("unknown job %q", ref.Job)}
	}
	s.metrics.Inc(mJobsSubmitted)
	refCopy := ref
	j := &job{
		experiment: cs.experiment,
		params:     parent.params,
		key:        key,
		from:       &refCopy,
		state:      StateQueued,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	s.admitLocked(j)
	if val, ok := s.cache.Get(key); ok {
		s.finishHitLocked(j, val)
		v := j.view(true)
		s.mu.Unlock()
		return v, nil
	}
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()

	// Resumes run synchronously on the request goroutine: the shared
	// prefix is already simulated, only the tail executes. The stream
	// lock serializes concurrent resumes, which rewind the shared space.
	s.metrics.Inc(mJobsExecuted)
	cs.mu.Lock()
	res, err := cs.run.Resume(ref.K)
	cs.mu.Unlock()
	var val []byte
	if err == nil {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err = enc.Encode(res); err == nil {
			val = b.Bytes()
			_ = s.storeResult(s.runCtx, key, val)
		}
	}
	s.mu.Lock()
	s.finishLocked(j, val, err)
	v := j.view(true)
	s.mu.Unlock()
	return v, nil
}

// writeCodedError maps a typed error to its HTTP status in envelope form.
func writeCodedError(w http.ResponseWriter, err error) {
	code := errorCode(err)
	status := http.StatusInternalServerError
	switch code {
	case CodeBadRequest:
		status = http.StatusBadRequest
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeQueueFull, CodeShuttingDown:
		status = http.StatusServiceUnavailable
	}
	WriteEnvelopeError(w, status, code, err.Error())
}
