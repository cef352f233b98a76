package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/experiments"
)

// APIVersion is the current wire format: every response is one Envelope,
// and errors are typed objects instead of bare strings.
const APIVersion = "2025-06"

// LegacyAPIVersion selects the original wire format — unwrapped JobView
// bodies, {"jobs": ...} listings, and {"error": "<message>"} errors — for
// clients that predate the envelope. Request it with the Accept-Version
// header; the golden tests in envelope_test.go pin its exact shapes.
const LegacyAPIVersion = "2024-01"

// VersionHeader is the request header that selects the wire format.
const VersionHeader = "Accept-Version"

// Typed error codes carried in Envelope.Error.Code. Terminal codes
// (cancelled, timeout, panic, experiment_failed) describe why a job
// failed; the rest describe why a request was refused.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeQueueFull        = "queue_full"
	CodeShuttingDown     = "shutting_down"
	CodeCancelled        = "cancelled"
	CodeTimeout          = "timeout"
	CodePanic            = "panic"
	CodeExperimentFailed = "experiment_failed"
	// CodeInvalidResult fails a job whose result bytes are not valid
	// JSON (see ValidResult).
	CodeInvalidResult = "invalid_result"
	// CodeQuotaExceeded rejects a submission whose tenant is over its
	// admission quota (fabric coordinators only; a single server never
	// emits it).
	CodeQuotaExceeded = "quota_exceeded"
)

// APIError is the envelope's typed error object.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope is the one response shape of the current API: every endpoint
// fills the fields it has and omits the rest, so clients decode a single
// type. A job's result rides beside the job, not inside it.
type Envelope struct {
	Version     string                   `json:"api_version"`
	Job         *JobView                 `json:"job,omitempty"`
	Jobs        []JobView                `json:"jobs,omitempty"`
	Experiments []experiments.Info       `json:"experiments,omitempty"`
	Result      json.RawMessage          `json:"result,omitempty"`
	Point       *experiments.PointResult `json:"point,omitempty"`
	Outcomes    []PointOutcome           `json:"outcomes,omitempty"`
	Cached      bool                     `json:"cached,omitempty"`
	Progress    *Progress                `json:"progress,omitempty"`
	Checkpoints *CheckpointStreamView    `json:"checkpoints,omitempty"`
	Checkpoint  *CheckpointView          `json:"checkpoint,omitempty"`
	QueueDepth  *int                     `json:"queue_depth,omitempty"`
	Error       *APIError                `json:"error,omitempty"`
}

// PointOutcome is one point's result within a batched POST /v1/points
// dispatch: its position in the batch, its content key, and exactly one
// of a result or a typed error. A streamed batch response carries one
// outcome per ndjson line as each point retires, so the coordinator can
// close leases (and advance job progress) point by point instead of
// waiting for the whole batch.
type PointOutcome struct {
	Index  int                      `json:"index"`
	Key    string                   `json:"key,omitempty"`
	Point  *experiments.PointResult `json:"point,omitempty"`
	Cached bool                     `json:"cached,omitempty"`
	Error  *APIError                `json:"error,omitempty"`
}

// Progress reports how far a running sweep has advanced, in points.
// Keep-alive frames of a streaming ?wait response carry one, as do the
// coordinator's partial-result frames.
type Progress struct {
	PointsDone  int `json:"points_done"`
	PointsTotal int `json:"points_total"`
}

// requestVersion resolves a request's wire format. An absent header means
// the current version; an unknown one is a client error.
func requestVersion(r *http.Request) (string, error) {
	switch v := r.Header.Get(VersionHeader); v {
	case "", APIVersion:
		return APIVersion, nil
	case LegacyAPIVersion:
		return LegacyAPIVersion, nil
	default:
		return "", fmt.Errorf("unknown %s %q (known: %s, %s)", VersionHeader, v, APIVersion, LegacyAPIVersion)
	}
}

// WriteJSON writes v as one indented JSON document.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	writeBody(w, status, v, nil)
}

// WriteEnvelope stamps the version and writes the envelope. A result
// rides as the stored bytes themselves (see writeBody), so a cache hit
// costs its lookup plus one write, whatever its size.
func WriteEnvelope(w http.ResponseWriter, status int, env Envelope) {
	env.Version = APIVersion
	result := env.Result
	env.Result = nil
	writeBody(w, status, env, result)
}

// WriteEnvelopeError writes a bare typed error in an envelope.
func WriteEnvelopeError(w http.ResponseWriter, status int, code, message string) {
	WriteEnvelope(w, status, Envelope{Error: &APIError{Code: code, Message: message}})
}

// writeBody writes v, which must encode to a JSON object without a
// "result" field, as indented JSON. A non-empty result is appended
// verbatim as the object's last field: it is never decoded, compacted or
// re-indented, so a response's "result" is byte for byte the cache entry
// (and cascade-sim -json's output). Jobs check cache bytes once, when
// they take them (see ValidResult); nothing that fails the check reaches
// this splice.
func writeBody(w http.ResponseWriter, status int, v interface{}, result json.RawMessage) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encode response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if len(result) == 0 {
		w.WriteHeader(status)
		w.Write(append(body, '\n'))
		return
	}
	// Reopen the object, then write head, result and tail as they are:
	// the result is never copied.
	const sep, tail = ",\n  \"result\": ", "\n}\n"
	head := append(bytes.TrimRight(body[:len(body)-1], " \n"), sep...)
	result = bytes.TrimRight(result, " \n")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(result)+len(tail)))
	w.WriteHeader(status)
	w.Write(head)
	w.Write(result)
	io.WriteString(w, tail)
}

// ErrInvalidResult fails a job whose result bytes are not valid JSON —
// for example a checksummed cache entry written by a foreign tool. Such
// bytes are never spliced into a response.
var ErrInvalidResult = errors.New("result is not valid JSON")

// ValidResult is the one validity check a job's result bytes get, made
// where the job takes them from the cache — the only result bytes a job
// takes from outside the process (computed results come from
// json.Encoder; coalesced followers adopt their leader's) — not once per
// response.
func ValidResult(val []byte) error {
	if !json.Valid(val) {
		return fmt.Errorf("%w (%d bytes)", ErrInvalidResult, len(val))
	}
	return nil
}

// JobEnvelope renders a job in the current format: the result is hoisted
// out of the job, and a failed job carries its typed error.
func JobEnvelope(v JobView) Envelope {
	env := Envelope{Result: v.Result}
	v.Result = nil
	env.Job = &v
	if v.State == StateFailed {
		code := v.ErrorCode
		if code == "" {
			code = CodeExperimentFailed
		}
		env.Error = &APIError{Code: code, Message: v.Error}
	}
	return env
}

// legacyView strips the fields the legacy format never had.
func legacyView(v JobView) JobView {
	v.ErrorCode = ""
	v.From = nil
	return v
}

// codedError attaches a typed API code to an error. errorCode unwraps it
// with errors.As, so wrapping with %w anywhere above preserves the code.
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// errorCode classifies a job or submission error into its typed code.
// Explicit codes win; the context sentinels distinguish a cancelled job
// from one that exceeded its deadline; everything else is the
// experiment's own failure.
func errorCode(err error) string {
	var ce *codedError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ce):
		return ce.code
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrShuttingDown):
		return CodeShuttingDown
	case errors.Is(err, ErrUnknownExperiment):
		return CodeNotFound
	case errors.Is(err, ErrInvalidResult):
		return CodeInvalidResult
	default:
		return CodeExperimentFailed
	}
}
