package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Streaming ?wait: a long-poll on GET /v1/jobs/{id} that opts into
// "Accept: application/x-ndjson" gets newline-delimited envelope frames
// instead of one silent blocking response —
//
//	{"api_version":"2025-06","job":{...,"state":"running"},"progress":{"points_done":3,"points_total":42}}
//	...one keep-alive frame per ProgressInterval...
//	{"api_version":"2025-06","job":{...,"state":"done"},"result":{...}}
//
// The final line is always the same envelope the non-streaming path
// would have returned (compacted to one line, as ndjson requires), so a
// streaming client decodes every line into the one Envelope type and
// treats the last as the answer. Intermediate frames exist so clients —
// and the idle-connection timeouts of everything between them and the
// server — can tell a long sweep from a dead one: each carries the
// job's live point progress (absent until the sweep's first point
// completes; an experiment that never parallelizes sends frames with no
// progress field, which still serve as keep-alives).
//
// The legacy wire format predates streaming and never gets it;
// requestVersion gates this path to the current version.

// DefaultProgressInterval is the keep-alive cadence of streaming ?wait
// responses: frequent enough to outrun typical 30–60s proxy idle
// timeouts by a wide margin, rare enough to be free.
const DefaultProgressInterval = time.Second

// NDJSONContentType is the media type that opts a ?wait long-poll into
// streaming keep-alive frames.
const NDJSONContentType = "application/x-ndjson"

// WantsNDJSON reports whether the request opted into streaming frames.
func WantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), NDJSONContentType)
}

// JobStream is what a streaming long-poll needs of one job. The server
// and the fabric coordinator both serve their ndjson ?wait through it, so
// the frame sequence — and its guarantees — exist once.
type JobStream struct {
	// Done is closed when the job turns terminal.
	Done <-chan struct{}
	// View snapshots the job under its owner's lock.
	View func(withResult bool) JobView
	// Progress reports the job's live point counts (nil before any).
	Progress func() *Progress
	// Interval is the keep-alive cadence.
	Interval time.Duration

	// afterTick, when set, runs between a keep-alive tick and the view it
	// reads: tests finish the job there to pin the tick/finish race.
	afterTick func()
}

// Serve writes one streaming long-poll for job id. wait bounds the total
// wait exactly as the plain path's Await does; 0 degenerates to a single
// final frame. A keep-alive frame never carries a terminal state: a job
// found terminal at a tick — it finished after the tick fired, or select
// picked the tick over a ready Done — falls through to the final frame,
// so a client that stops at the first done frame always gets the result.
func (js JobStream) Serve(w http.ResponseWriter, r *http.Request, id string, wait time.Duration) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	tick := time.NewTicker(js.Interval)
	defer tick.Stop()

poll:
	for {
		select {
		case <-js.Done:
			break poll
		case <-deadline.C:
			break poll
		case <-r.Context().Done():
			break poll
		case <-tick.C:
			if js.afterTick != nil {
				js.afterTick()
			}
			v := js.View(false)
			if v.State.terminal() {
				break poll
			}
			if writeFrame(w, flusher, Envelope{Job: &v, Progress: js.Progress()}) != nil {
				return // client hung up; the job runs on regardless
			}
		}
	}

	v := js.View(true)
	env := JobEnvelope(v)
	if env.Error == nil && v.State != StateDone {
		if r.Context().Err() != nil {
			env.Error = &APIError{Code: CodeCancelled,
				Message: fmt.Sprintf("request cancelled while waiting for job %q", id)}
		} else {
			env.Progress = js.Progress()
		}
	}
	writeFrame(w, flusher, env)
}

// streamJob serves the server's streaming long-poll.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, id string, wait time.Duration) {
	j, ok := s.lookup(id)
	if !ok {
		WriteEnvelopeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	JobStream{
		Done:      j.done,
		View:      func(withResult bool) JobView { return s.viewOf(j, withResult) },
		Progress:  j.progress,
		Interval:  s.progressTick,
		afterTick: s.streamTickHook,
	}.Serve(w, r, id, wait)
}

// writeFrame writes one envelope as a single ndjson line and flushes it
// past any buffering so keep-alives actually reach the client. Marshal
// compacts an indented stored result onto the one line ndjson requires.
func writeFrame(w http.ResponseWriter, flusher http.Flusher, env Envelope) error {
	env.Version = APIVersion
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}
