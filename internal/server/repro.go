package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// Repro bundles make failed jobs debuggable offline: every terminal
// failure can be rendered as a self-contained JSON document holding the
// deterministic inputs that produced it — the fully-resolved params,
// the failing point's spec and content address, the armed fault spec
// and seed — plus the nearest checkpoint-stream entry when one exists.
// `cascade-sim -repro bundle.json` replays the bundle and verifies the
// failure reproduces identically; GET /v1/jobs/{id}/repro serves it.
//
// The bundle's Key hashes only the replay inputs (canon.ReproSchema):
// captured outputs — the error text, the checkpoint — are evidence, not
// inputs, and two bundles with the same key must replay the same way.

// ReproFaults records the fault-injection configuration that was armed
// when the failure happened. Spec and Seed are replay inputs; Fired is
// evidence (which sites had triggered, cumulatively, at capture time).
type ReproFaults struct {
	Spec  string           `json:"spec"`
	Seed  int64            `json:"seed"`
	Fired map[string]int64 `json:"fired,omitempty"`
}

// ReproCheckpoint is the nearest checkpoint-stream entry to the
// failure: where the run last stood that a debugger can inspect or
// resume from. Captured only when the job had a checkpoint stream.
type ReproCheckpoint struct {
	Key       string `json:"key"`
	Index     int    `json:"index"`
	Iter      int    `json:"iter"`
	NextChunk int    `json:"next_chunk"`
	Time      int64  `json:"time"`
}

// ReproBundle is the self-contained replay document attached to a
// terminal-failed job.
type ReproBundle struct {
	Schema     string    `json:"schema"`
	Key        string    `json:"repro_key"`
	Job        string    `json:"job"`
	Experiment string    `json:"experiment"`
	Params     JobParams `json:"params"` // fully resolved, incl. effective timeout_ms
	JobKey     string    `json:"job_key"`

	// What failed: the recorded error and its typed code; for sharded
	// (fabric) jobs, the lowest-index failing point and its address.
	Error     string                 `json:"error"`
	ErrorCode string                 `json:"error_code"`
	Point     *experiments.PointSpec `json:"point,omitempty"`
	PointKey  string                 `json:"point_key,omitempty"`

	Faults     *ReproFaults     `json:"faults,omitempty"`
	Checkpoint *ReproCheckpoint `json:"checkpoint,omitempty"`
}

// reproInputs is the deterministic subset of a bundle that Key hashes.
type reproInputs struct {
	Experiment string                 `json:"experiment"`
	Params     JobParams              `json:"params"`
	Point      *experiments.PointSpec `json:"point,omitempty"`
	FaultSpec  string                 `json:"fault_spec,omitempty"`
	FaultSeed  int64                  `json:"fault_seed,omitempty"`
}

// DeriveKey computes (and stamps) the bundle's content address from its
// replay inputs under canon.ReproSchema.
func (b *ReproBundle) DeriveKey() (string, error) {
	in := reproInputs{Experiment: b.Experiment, Params: b.Params, Point: b.Point}
	if b.Faults != nil {
		in.FaultSpec = b.Faults.Spec
		in.FaultSeed = b.Faults.Seed
	}
	key, err := canon.ReproKey(in)
	if err != nil {
		return "", err
	}
	b.Key = key
	return key, nil
}

// FiredCounts snapshots how often each armed site of inj has triggered,
// for bundle evidence. Nil-safe.
func FiredCounts(inj *faults.Injector, sites []string) map[string]int64 {
	fired := make(map[string]int64)
	for _, site := range sites {
		if n := inj.Fired(site); n > 0 {
			fired[site] = n
		}
	}
	if len(fired) == 0 {
		return nil
	}
	return fired
}

// Repro builds the repro bundle for a terminal-failed job.
func (s *Server) Repro(id string) (*ReproBundle, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, &codedError{code: CodeNotFound, err: fmt.Errorf("unknown job %q", id)}
	}
	s.mu.Lock()
	state, errMsg, errCode := j.state, j.errMsg, j.errCode
	b := &ReproBundle{
		Schema:     canon.ReproSchema,
		Job:        j.id,
		Experiment: j.experiment,
		Params:     j.params,
		JobKey:     j.key,
		Error:      errMsg,
		ErrorCode:  errCode,
	}
	s.mu.Unlock()
	if state != StateFailed {
		return nil, &codedError{code: CodeBadRequest,
			err: fmt.Errorf("job %q is %s; repro bundles exist only for failed jobs", id, state)}
	}
	if s.faultSpec != "" {
		b.Faults = &ReproFaults{Spec: s.faultSpec, Seed: s.faultSeed,
			Fired: FiredCounts(s.faults, FaultSites())}
	}
	if cs := s.streamFor(id); cs != nil {
		cs.mu.Lock()
		if n := len(cs.run.Checkpoints); n > 0 {
			ck := cs.run.Checkpoints[n-1]
			b.Checkpoint = &ReproCheckpoint{Key: cs.key, Index: n - 1,
				Iter: ck.Iter, NextChunk: ck.NextChunk, Time: ck.Time}
		}
		cs.mu.Unlock()
	}
	if _, err := b.DeriveKey(); err != nil {
		return nil, err
	}
	return b, nil
}

// handleRepro serves GET /v1/jobs/{id}/repro: the bundle as a bare JSON
// document (not an envelope) so `curl ... > bundle.json` produces
// exactly what `cascade-sim -repro` consumes.
func (s *Server) handleRepro(w http.ResponseWriter, r *http.Request) {
	if ver, err := requestVersion(r); err != nil || ver == LegacyAPIVersion {
		WriteEnvelopeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("repro bundles require %s %s", VersionHeader, APIVersion))
		return
	}
	b, err := s.Repro(r.PathValue("id"))
	if err != nil {
		writeCodedError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, b)
}

// RunRepro replays a bundle: re-arm the recorded fault injector from
// its spec and seed, then re-execute the failing unit — the recorded
// point when the bundle names one, the whole experiment otherwise —
// under the same deadline and panic-containment shape the serving path
// uses. The returned error is the replayed failure (nil means the
// failure did NOT reproduce, which for a correctly-captured bundle is
// itself a finding).
func RunRepro(ctx context.Context, b *ReproBundle) error {
	if b.Schema != canon.ReproSchema {
		return &codedError{code: CodeBadRequest,
			err: fmt.Errorf("bundle schema %q; this build replays %q", b.Schema, canon.ReproSchema)}
	}
	var inj *faults.Injector
	if b.Faults != nil {
		var err error
		if inj, err = faults.Parse(b.Faults.Spec, b.Faults.Seed); err != nil {
			return &codedError{code: CodeBadRequest, err: fmt.Errorf("bundle fault spec: %w", err)}
		}
	}
	if b.Point != nil {
		key, err := canon.PointKey(*b.Point)
		if err != nil {
			return &codedError{code: CodeBadRequest, err: err}
		}
		if b.PointKey != "" && key != b.PointKey {
			return &codedError{code: CodeBadRequest,
				err: fmt.Errorf("bundle point key %s does not match its spec (derived %s) — tampered or stale bundle", b.PointKey, key)}
		}
	}
	if ms := b.Params.TimeoutMS; ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	return replayUnit(ctx, b, inj)
}

// replayUnit mirrors executePoint/execute: injected panic and stall
// sites first, then the real run, with panics contained into the same
// error shape the serving path records.
func replayUnit(ctx context.Context, b *ReproBundle, inj *faults.Injector) (err error) {
	unit := "experiment"
	if b.Point != nil {
		unit = "point"
	}
	defer func() {
		if r := recover(); r != nil {
			err = &codedError{code: CodePanic, err: fmt.Errorf("%s panicked: %v\n%s", unit, r, debug.Stack())}
		}
	}()
	if inj.Check(SiteExpPanic) {
		panic(fmt.Sprintf("injected panic (site %s)", SiteExpPanic))
	}
	if inj.Check(SiteExpStall) {
		<-ctx.Done()
		return ctx.Err()
	}
	if b.Point != nil {
		_, err = experiments.RunPoint(ctx, *b.Point)
		return err
	}
	e, ok := experiments.Lookup(b.Experiment)
	if !ok {
		return &codedError{code: CodeNotFound,
			err: fmt.Errorf("bundle experiment %q not in this build's registry", b.Experiment)}
	}
	if _, err = e.Run(ctx, b.Params.RunConfig()); err != nil {
		return err
	}
	return nil
}

// SameFailure reports whether a replayed error matches a bundle's
// recorded one: same typed code and same first error line. Panic errors
// carry goroutine stacks whose addresses differ run to run, so the
// comparison deliberately stops at the first newline.
func (b *ReproBundle) SameFailure(replayed error) bool {
	if replayed == nil {
		return false
	}
	code := errorCode(replayed)
	if code != b.ErrorCode {
		return false
	}
	return FirstLine(replayed.Error()) == FirstLine(b.Error)
}

// FirstLine truncates s at its first newline.
func FirstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// ErrorCodeOf classifies err into its typed API code ("" for nil) —
// the exported face of errorCode, for replay tooling that compares a
// live error against a bundle's recorded code.
func ErrorCodeOf(err error) string { return errorCode(err) }
