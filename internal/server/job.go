package server

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed        (leader jobs)
//	queued → done | failed                  (coalesced followers, cache hits)
//
// A job cancelled by shutdown finishes failed with the context error.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// terminal reports whether the state is final (done or failed).
func (s State) terminal() bool { return s == StateDone || s == StateFailed }

// job is the server-internal record of one submitted experiment run. All
// mutable fields are guarded by the server mutex; done is closed exactly
// once, when state reaches StateDone or StateFailed.
type job struct {
	id         string
	seq        int // submission order (the number in id)
	experiment string
	params     JobParams // fully resolved (defaults filled)
	key        string    // content-addressed cache key of the result

	state     State
	cached    bool // result served from the cache, no simulation ran
	coalesced bool // attached to an identical in-flight job
	errMsg    string
	errCode   string         // typed code classifying errMsg (see errorCode)
	from      *CheckpointRef // set on jobs resumed from a checkpoint
	result    []byte         // rendered JSON result bytes

	created  time.Time
	started  time.Time
	finished time.Time

	// Sweep progress in points, updated live from the experiment pool's
	// goroutines while the job runs (hence atomics, not the mutex): the
	// streaming ?wait path reads them to build keep-alive frames.
	pointsDone  atomic.Int64
	pointsTotal atomic.Int64

	done chan struct{}
}

// progress snapshots the job's live point counts, or nil before the
// sweep has reported anything (jobs whose experiment never parallelizes
// report no point progress at all).
func (j *job) progress() *Progress {
	total := j.pointsTotal.Load()
	if total == 0 {
		return nil
	}
	return &Progress{PointsDone: int(j.pointsDone.Load()), PointsTotal: int(total)}
}

// JobView is a job's client-facing JSON form. ErrorCode and
// FromCheckpoint are current-version additions; the legacy wire format
// strips them (see legacyView).
type JobView struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Params     JobParams       `json:"params"`
	Key        string          `json:"key"`
	State      State           `json:"state"`
	Cached     bool            `json:"cached"`
	Coalesced  bool            `json:"coalesced,omitempty"`
	Error      string          `json:"error,omitempty"`
	ErrorCode  string          `json:"error_code,omitempty"`
	From       *CheckpointRef  `json:"from_checkpoint,omitempty"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// view renders the job for clients. Callers must hold the server mutex.
// withResult controls whether the (possibly large) result bytes ride
// along — job listings omit them, single-job GETs include them.
func (j *job) view(withResult bool) JobView {
	v := JobView{
		ID:         j.id,
		Experiment: j.experiment,
		Params:     j.params,
		Key:        j.key,
		State:      j.state,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Error:      j.errMsg,
		ErrorCode:  j.errCode,
		From:       j.from,
		Created:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult && j.state == StateDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}
