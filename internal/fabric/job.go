package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// fjob is the coordinator's record of one accepted job. It mirrors the
// server's job just closely enough to render the same JobView, so a
// client cannot tell a coordinator from a server by response shape.
type fjob struct {
	id         string
	experiment string
	params     server.JobParams
	key        string // render key of the merged result
	tenant     string

	state   server.State
	cached  bool
	errMsg  string
	errCode string
	result  []byte

	created  time.Time
	started  time.Time
	finished time.Time

	pointsDone  atomic.Int64
	pointsTotal atomic.Int64

	// jdone marks point indexes whose point_completed journal record
	// already exists, either written this incarnation or replayed from a
	// previous one — the idempotence fence that keeps a re-driven sweep
	// from journaling (and thus counting) the same completion twice.
	// Guarded by Coordinator.mu.
	jdone map[int]bool

	// Failure forensics for the repro bundle: the lowest-index failed
	// point's spec, plus the worker's raw error (failDetail) and typed
	// code, free of the "worker http://..." framing that would make the
	// bundle key depend on topology. Written once before the job turns
	// terminal; repro holds the marshaled bundle.
	failSpec   *experiments.PointSpec
	failDetail string
	failCode   string
	repro      []byte

	done chan struct{}
}

func (j *fjob) view(withResult bool) server.JobView {
	v := server.JobView{
		ID:         j.id,
		Experiment: j.experiment,
		Params:     j.params,
		Key:        j.key,
		State:      j.state,
		Cached:     j.cached,
		Error:      j.errMsg,
		ErrorCode:  j.errCode,
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
	if withResult && j.state == server.StateDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

func (j *fjob) progress() *server.Progress {
	total := j.pointsTotal.Load()
	if total == 0 {
		return nil
	}
	return &server.Progress{PointsDone: int(j.pointsDone.Load()), PointsTotal: int(total)}
}

// fabricError carries a typed API code through the scheduler, so a
// job's failure reports the same code a single server would have used.
// detail preserves the worker's own message before the scheduler wraps
// it with dispatch framing — repro bundles want the portable half.
type fabricError struct {
	code   string
	detail string
	err    error
}

func (e *fabricError) Error() string { return e.err.Error() }
func (e *fabricError) Unwrap() error { return e.err }

func codeOf(err error) string {
	var fe *fabricError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &fe):
		return fe.code
	case errors.Is(err, context.Canceled):
		return server.CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return server.CodeTimeout
	case errors.Is(err, server.ErrInvalidResult):
		return server.CodeInvalidResult
	default:
		return server.CodeExperimentFailed
	}
}

// Submit accepts one job for a tenant ("" = anonymous). The submission
// path mirrors the server's: resolve defaults, derive the content
// address, answer from the cache when the merged result already exists,
// otherwise start the distributed run.
func (c *Coordinator) Submit(tenant, experiment string, p server.JobParams) (server.JobView, error) {
	if !c.exps[experiment] {
		return server.JobView{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, experiment)
	}
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return server.JobView{}, err
	}
	jobKey, err := server.JobKey(experiment, p)
	if err != nil {
		return server.JobView{}, err
	}
	key := server.RenderKey(jobKey, "json")

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.metrics.Inc(mJobsRejected)
		return server.JobView{}, ErrShuttingDown
	}
	if q := c.quota(tenant); q > 0 && c.tenants[tenant] >= q {
		c.metrics.Inc(mJobsQuotaRejected)
		return server.JobView{}, fmt.Errorf("%w: tenant %q has %d jobs in flight (quota %d)",
			ErrQuotaExceeded, tenant, c.tenants[tenant], q)
	}
	c.metrics.Inc(mJobsSubmitted)
	j := &fjob{
		id:         fmt.Sprintf("f%d", c.nextID),
		experiment: experiment,
		params:     p,
		key:        key,
		tenant:     tenant,
		state:      server.StateQueued,
		created:    time.Now(),
		jdone:      make(map[int]bool),
		done:       make(chan struct{}),
	}
	c.nextID++
	c.jobs[j.id] = j
	c.order = append(c.order, j)

	if val, ok := c.cache.Get(key); ok {
		// Cache bytes are spliced into responses verbatim: check them
		// once, here, outside the lock (server.ValidResult).
		j.cached = true
		c.metrics.Inc(mJobsCacheHits)
		c.mu.Unlock()
		verr := server.ValidResult(val)
		c.mu.Lock()
		c.finishLocked(j, val, verr)
		return j.view(true), nil
	}
	// Journal the acceptance before the run starts: a job either never
	// existed or is recoverable — there is no window where work is in
	// flight for a job a restart would not know about. Cache-answered
	// jobs are deliberately not journaled; resubmission hits the cache
	// again.
	if raw, err := json.Marshal(p); err == nil {
		c.jappend(journal.Record{Type: journal.TypeJobAccepted, Job: j.id,
			Tenant: tenant, Experiment: experiment, Params: raw, Key: key})
	}
	c.tenants[tenant]++
	c.wg.Add(1)
	go c.runJob(j)
	return j.view(true), nil
}

// Job returns the view of a submitted job.
func (c *Coordinator) Job(id string) (server.JobView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return server.JobView{}, false
	}
	return j.view(true), true
}

// Jobs returns every job in submission order, without result payloads.
func (c *Coordinator) Jobs() []server.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]server.JobView, len(c.order))
	for i, j := range c.order {
		out[i] = j.view(false)
	}
	return out
}

// Await blocks until the job finishes, the timeout elapses, or cancel
// fires, then returns the current view.
func (c *Coordinator) Await(id string, timeout time.Duration, cancel <-chan struct{}) (server.JobView, bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return server.JobView{}, false
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
	return c.Job(id)
}

// runJob drives one job to completion: decomposable sweeps shard
// point-by-point across the fleet; anything else ships whole to one
// worker.
func (c *Coordinator) runJob(j *fjob) {
	defer func() {
		c.mu.Lock()
		c.tenants[j.tenant]--
		if c.tenants[j.tenant] <= 0 {
			delete(c.tenants, j.tenant)
		}
		c.mu.Unlock()
		c.wg.Done()
	}()
	c.mu.Lock()
	j.state = server.StateRunning
	j.started = time.Now()
	c.mu.Unlock()

	var val []byte
	var err error
	if specs, ok := experiments.Decompose(j.experiment, j.params.RunConfig()); ok {
		val, err = c.runSharded(j, specs)
	} else {
		c.metrics.Inc(mJobsForwarded)
		val, err = c.forwardJob(j)
	}
	if err == nil {
		// Degrade on a failed write exactly as the server does: the merged
		// result is in hand, only the shared copy is lost. The merged
		// record goes down after the Put — it is recovery's licence to
		// forget the job, so the result must already be addressable.
		_ = c.cache.Put(j.key, val)
		c.jappend(journal.Record{Type: journal.TypeJobMerged, Job: j.id, Key: j.key})
	} else {
		rec := journal.Record{Type: journal.TypeJobFailed, Job: j.id,
			Error: err.Error(), Code: codeOf(err)}
		if b, rerr := c.buildRepro(j, err); rerr == nil {
			j.repro = b
			rec.Repro = b
		}
		c.jappend(rec)
	}
	c.mu.Lock()
	c.finishLocked(j, val, err)
	c.mu.Unlock()
}

// runSharded runs a decomposed sweep: points are carved into batched
// leases (size per batch.go), dispatched across the fleet by up to
// MaxInflight concurrent dispatchers, and merged in index order with
// the pool's lowest-index-error rule — when points fail, the job
// reports the failure of the lowest-index one, independent of dispatch
// interleaving.
func (c *Coordinator) runSharded(j *fjob, specs []experiments.PointSpec) ([]byte, error) {
	j.pointsTotal.Store(int64(len(specs)))
	results := make([]experiments.PointResult, len(specs))
	errs := make([]error, len(specs))
	var cursor int64
	dispatchers := c.cfg.MaxInflight
	if dispatchers > len(specs) {
		dispatchers = len(specs)
	}
	var wg sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Lease size is re-read per lease, so the adaptive tuner's
				// estimate from early leases shapes later ones mid-job.
				size := c.tuner.size(c.cfg.Batch)
				c.metrics.Set(mBatchSize, int64(size))
				lo := int(atomic.AddInt64(&cursor, int64(size))) - size
				if lo >= len(specs) {
					return
				}
				hi := lo + size
				if hi > len(specs) {
					hi = len(specs)
				}
				c.runLease(j, specs, results, errs, lo, hi)
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			// Record the failing point for the repro bundle before the job
			// turns terminal: the spec pins the exact point, the detail and
			// code pin the failure free of dispatch framing.
			sp := specs[i]
			j.failSpec = &sp
			j.failDetail, j.failCode = e.Error(), codeOf(e)
			var fe *fabricError
			if errors.As(e, &fe) && fe.detail != "" {
				j.failDetail, j.failCode = fe.detail, fe.code
			}
			return nil, fmt.Errorf("point %d: %w", i, e)
		}
	}
	merged, err := experiments.MergePoints(j.experiment, j.params.RunConfig(), results)
	if err != nil {
		return nil, err
	}
	return server.RenderJSON(merged)
}

// leaseItem is one point riding a batched lease.
type leaseItem struct {
	idx  int
	key  string
	spec experiments.PointSpec
}

// runLease resolves specs[lo:hi] to results: the coordinator's own
// index first, then batched dispatch along the first open point's ring
// candidates until every point retires, its attempt budget runs out, or
// its error is terminal. A retry re-ships only the unfinished remainder
// — points whose outcomes arrived before a worker died are closed and
// never re-dispatched.
//
// Every shipped point is bracketed by journal records exactly as
// unbatched dispatch was — point_assigned (stamped with this
// incarnation's epoch) before the RPC, then exactly one of
// point_completed / point_retried / point_failed per assignment — so at
// any instant the log's open assignments are precisely the in-flight
// leases, a crash leaves nothing uncountable, and the conservation
// identity (metrics.go) holds at any batch size. Cache-answered points
// write no records at all: no lease was ever issued for them.
func (c *Coordinator) runLease(j *fjob, specs []experiments.PointSpec, results []experiments.PointResult, errs []error, lo, hi int) {
	var todo []leaseItem
	for idx := lo; idx < hi; idx++ {
		if err := c.runCtx.Err(); err != nil {
			errs[idx] = err
			continue
		}
		key, err := canon.PointKey(specs[idx])
		if err != nil {
			errs[idx] = &fabricError{code: server.CodeBadRequest, err: err}
			continue
		}
		if val, ok := c.cache.Get(key); ok {
			var res experiments.PointResult
			if jerr := json.Unmarshal(val, &res); jerr == nil {
				c.metrics.Inc(mCacheHits)
				results[idx] = res
				j.pointsDone.Add(1)
				continue
			}
		}
		todo = append(todo, leaseItem{idx: idx, key: key, spec: specs[idx]})
	}

	attempts := make(map[int]int, len(todo))
	backoff := c.cfg.RetryBackoff
	rot := 0
	for len(todo) > 0 {
		if err := c.runCtx.Err(); err != nil {
			for _, it := range todo {
				errs[it.idx] = err
			}
			return
		}
		urls, wake := c.candidates(todo[0].key)
		if len(urls) == 0 {
			select {
			case <-wake:
			case <-time.After(backoff):
				backoff = nextBackoff(backoff)
			case <-c.runCtx.Done():
				for _, it := range todo {
					errs[it.idx] = c.runCtx.Err()
				}
				return
			}
			continue
		}
		url := urls[rot%len(urls)]
		rot++
		c.metrics.Inc(mBatchesDispatched)
		shipped := todo
		for _, it := range shipped {
			attempts[it.idx]++
			c.metrics.Inc(mPointsAssigned)
			c.jappend(journal.Record{Type: journal.TypePointAssigned, Job: j.id,
				Index: it.idx, Key: it.key, Epoch: c.epoch})
		}
		// done marks leases closed by an outcome this round — completed or
		// terminally failed; anything still open afterwards is the
		// remainder, journaled retried and re-shipped.
		done := make(map[int]bool, len(shipped))
		err := c.shipBatch(url, shipped, func(pos int, o server.PointOutcome) {
			if pos < 0 || pos >= len(shipped) || done[shipped[pos].idx] {
				return
			}
			it := shipped[pos]
			switch {
			case o.Error == nil && o.Point != nil:
				done[it.idx] = true
				results[it.idx] = *o.Point
				c.completePoint(j, it, *o.Point, o.Cached)
			case o.Error != nil && terminalCode(o.Error.Code):
				done[it.idx] = true
				ferr := &fabricError{code: o.Error.Code, detail: o.Error.Message,
					err: fmt.Errorf("worker %s: %s", url, o.Error.Message)}
				c.metrics.Inc(mPointsFailed)
				c.jappend(journal.Record{Type: journal.TypePointFailed, Job: j.id,
					Index: it.idx, Error: ferr.Error(), Code: o.Error.Code})
				errs[it.idx] = ferr
				// A malformed or shed outcome (non-terminal error, or a frame
				// with neither result nor error) leaves the lease open; the
				// remainder pass below retries it.
			}
		})
		if err != nil {
			// A batch-level terminal error — the worker refused the request
			// in a way a retry elsewhere would reproduce — fails every open
			// lease identically.
			var fe *fabricError
			if errors.As(err, &fe) && terminalCode(fe.code) {
				for _, it := range shipped {
					if done[it.idx] {
						continue
					}
					done[it.idx] = true
					c.metrics.Inc(mPointsFailed)
					c.jappend(journal.Record{Type: journal.TypePointFailed, Job: j.id,
						Index: it.idx, Error: err.Error(), Code: fe.code})
					errs[it.idx] = err
				}
			}
		}
		var rest []leaseItem
		for _, it := range shipped {
			if done[it.idx] {
				continue
			}
			c.metrics.Inc(mPointsRetried)
			c.jappend(journal.Record{Type: journal.TypePointRetried, Job: j.id, Index: it.idx})
			if attempts[it.idx] >= c.cfg.MaxPointAttempts {
				cause := err
				if cause == nil {
					cause = errors.New("worker shed the point")
				}
				errs[it.idx] = fmt.Errorf("point %s undeliverable after %d attempts: %w",
					it.key[:12], attempts[it.idx], cause)
				continue
			}
			rest = append(rest, it)
		}
		todo = rest
		if len(todo) == 0 {
			return
		}
		select {
		case <-time.After(backoff):
		case <-c.runCtx.Done():
			for _, it := range todo {
				errs[it.idx] = c.runCtx.Err()
			}
			return
		}
		backoff = nextBackoff(backoff)
	}
}

// completePoint closes one successful lease: the result becomes
// addressable, the journal closes the assignment (only once per point
// ever — a replayed completion that re-ran because its cached bytes
// were lost must not double-count), and job progress advances by one
// point — which is what keeps ?wait progress per-point under batching.
func (c *Coordinator) completePoint(j *fjob, it leaseItem, res experiments.PointResult, cached bool) {
	c.metrics.Inc(mPointsCompleted)
	if cached {
		c.metrics.Inc(mCacheRemoteHits)
	}
	if val, merr := json.Marshal(res); merr == nil {
		_ = c.cache.Put(it.key, val)
	}
	c.mu.Lock()
	first := !j.jdone[it.idx]
	j.jdone[it.idx] = true
	c.mu.Unlock()
	if first {
		c.jappend(journal.Record{Type: journal.TypePointCompleted, Job: j.id, Index: it.idx, Key: it.key})
	} else {
		c.jappend(journal.Record{Type: journal.TypePointRetried, Job: j.id, Index: it.idx})
	}
	j.pointsDone.Add(1)
}

func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > time.Second {
		d = time.Second
	}
	return d
}

// terminalCode reports whether a worker's error code means the point
// itself is bad — retrying it elsewhere would fail identically.
func terminalCode(code string) bool {
	switch code {
	case server.CodeQueueFull, server.CodeShuttingDown:
		return false // load shedding: another worker (or a later try) can serve
	case "":
		return false // no typed code = transport-level trouble
	default:
		return true
	}
}

// shipBatch performs one batched lease dispatch: every item in one RPC,
// outcomes streamed back per point (the coordinator negotiates ndjson;
// a plain single-envelope reply with outcomes is accepted too).
// onOutcome fires once per received outcome, in arrival order, while
// the stream is still open — this is what advances job progress and
// closes leases point by point. The returned error is a *fabricError
// carrying the worker's typed code when the worker answered with one,
// or an untyped transport error when it did not; either way, outcomes
// already delivered stand — only the remainder is the caller's to
// retry.
func (c *Coordinator) shipBatch(workerURL string, items []leaseItem, onOutcome func(pos int, o server.PointOutcome)) error {
	if err := c.faults.Fail(SiteAssign); err != nil {
		return fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	wire := make([]map[string]interface{}, len(items))
	for i, it := range items {
		wire[i] = map[string]interface{}{"key": it.key, "point": it.spec}
	}
	body, err := json.Marshal(map[string]interface{}{"points": wire})
	if err != nil {
		return &fabricError{code: server.CodeBadRequest, err: err}
	}
	req, err := http.NewRequestWithContext(c.runCtx, "POST", workerURL+"/v1/points", bytes.NewReader(body))
	if err != nil {
		return &fabricError{code: server.CodeBadRequest, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", server.NDJSONContentType)
	req.Header.Set(server.VersionHeader, server.APIVersion)
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch to %s: %w", workerURL, err)
	}
	defer resp.Body.Close()

	if !strings.Contains(resp.Header.Get("Content-Type"), server.NDJSONContentType) {
		// Single-envelope reply: a refusal (shedding, draining, bad
		// request), or a worker that answered the batch unstreamed.
		var env server.Envelope
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
			return fmt.Errorf("dispatch to %s: bad envelope: %w", workerURL, derr)
		}
		if resp.StatusCode != http.StatusOK || len(env.Outcomes) == 0 {
			code, msg := "", fmt.Sprintf("status %d", resp.StatusCode)
			if env.Error != nil {
				code, msg = env.Error.Code, env.Error.Message
			}
			if !terminalCode(code) {
				return fmt.Errorf("dispatch to %s: %s", workerURL, msg)
			}
			return &fabricError{code: code, detail: msg,
				err: fmt.Errorf("worker %s: %s", workerURL, msg)}
		}
		for _, o := range env.Outcomes {
			onOutcome(o.Index, o)
		}
		return nil
	}

	// Streamed outcomes: one envelope frame per retired point. Frame
	// arrival times feed the adaptive batch tuner — the gaps estimate
	// point cost, the lead-in estimates RPC overhead.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var first, last time.Time
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env server.Envelope
		if derr := json.Unmarshal(line, &env); derr != nil {
			return fmt.Errorf("dispatch to %s: bad frame: %w", workerURL, derr)
		}
		if env.Error != nil && len(env.Outcomes) == 0 {
			if terminalCode(env.Error.Code) {
				return &fabricError{code: env.Error.Code, detail: env.Error.Message,
					err: fmt.Errorf("worker %s: %s", workerURL, env.Error.Message)}
			}
			return fmt.Errorf("dispatch to %s: %s", workerURL, env.Error.Message)
		}
		for _, o := range env.Outcomes {
			now := time.Now()
			if first.IsZero() {
				first = now
			}
			last = now
			n++
			onOutcome(o.Index, o)
		}
	}
	c.tuner.observeStream(start, first, last, n)
	if serr := sc.Err(); serr != nil {
		return fmt.Errorf("dispatch to %s: stream died after %d outcomes: %w", workerURL, n, serr)
	}
	return nil
}

// forwardJob ships a non-decomposable job whole to one worker (chosen
// by the job's content address, so identical jobs land on the same
// worker and coalesce there) and relays the result.
func (c *Coordinator) forwardJob(j *fjob) ([]byte, error) {
	backoff := c.cfg.RetryBackoff
	var lastErr error = errNoWorkers
	// As in runPoint: attempt advances only on a real dispatch, so an
	// empty fleet never burns the budget.
	for attempt := 0; attempt < c.cfg.MaxPointAttempts; {
		urls, wake := c.candidates(j.key)
		if len(urls) == 0 {
			select {
			case <-wake:
			case <-time.After(backoff):
				backoff = nextBackoff(backoff)
			case <-c.runCtx.Done():
				return nil, c.runCtx.Err()
			}
			continue
		}
		url := urls[attempt%len(urls)]
		attempt++
		val, err := c.forwardOnce(url, j)
		if err == nil {
			return val, nil
		}
		var fe *fabricError
		if errors.As(err, &fe) && terminalCode(fe.code) {
			return nil, err
		}
		lastErr = err
		select {
		case <-time.After(backoff):
		case <-c.runCtx.Done():
			return nil, c.runCtx.Err()
		}
		backoff = nextBackoff(backoff)
	}
	return nil, fmt.Errorf("job %s undeliverable after %d attempts: %w", j.id, c.cfg.MaxPointAttempts, lastErr)
}

// forwardOnce submits the job to one worker and long-polls it to
// completion. The relayed result is re-rendered through the canonical
// formatting so its bytes match a direct single-node run exactly.
func (c *Coordinator) forwardOnce(workerURL string, j *fjob) ([]byte, error) {
	body, _ := json.Marshal(map[string]interface{}{"experiment": j.experiment, "params": j.params})
	env, status, err := c.doEnvelope("POST", workerURL+"/v1/jobs", body)
	if err != nil {
		return nil, err
	}
	if env.Error != nil && status != http.StatusOK && status != http.StatusAccepted {
		if terminalCode(env.Error.Code) {
			return nil, &fabricError{code: env.Error.Code, detail: env.Error.Message,
				err: fmt.Errorf("worker %s: %s", workerURL, env.Error.Message)}
		}
		return nil, fmt.Errorf("worker %s refused job: %s", workerURL, env.Error.Message)
	}
	if env.Job == nil {
		return nil, fmt.Errorf("worker %s: job response without a job", workerURL)
	}
	for env.Job.State != server.StateDone && env.Job.State != server.StateFailed {
		if c.runCtx.Err() != nil {
			return nil, c.runCtx.Err()
		}
		env, _, err = c.doEnvelope("GET", workerURL+"/v1/jobs/"+env.Job.ID+"?wait=5s", nil)
		if err != nil {
			return nil, err
		}
		if env.Job == nil {
			return nil, fmt.Errorf("worker %s: poll response without a job", workerURL)
		}
	}
	if env.Job.State == server.StateFailed {
		code := env.Job.ErrorCode
		if code == "" {
			code = server.CodeExperimentFailed
		}
		return nil, &fabricError{code: code, detail: env.Job.Error,
			err: fmt.Errorf("worker %s: %s", workerURL, env.Job.Error)}
	}
	return normalizeResult(env.Result)
}

// doEnvelope performs one current-version API request and decodes the
// envelope. Transport errors come back untyped (retryable).
func (c *Coordinator) doEnvelope(method, url string, body []byte) (server.Envelope, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.runCtx, method, url, rd)
	if err != nil {
		return server.Envelope{}, 0, &fabricError{code: server.CodeBadRequest, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(server.VersionHeader, server.APIVersion)
	resp, err := c.client.Do(req)
	if err != nil {
		return server.Envelope{}, 0, err
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return server.Envelope{}, resp.StatusCode, fmt.Errorf("bad envelope from %s: %w", url, err)
	}
	return env, resp.StatusCode, nil
}

// normalizeResult re-renders relayed result bytes in the canonical
// cache format (two-space indent, trailing newline). A current worker
// relays its stored bytes verbatim, but one built before that
// re-indented the result relative to its position in the envelope;
// normalizing restores the exact bytes RenderJSON produces either way,
// preserving the byte-identity and shared-cache contracts.
func normalizeResult(raw json.RawMessage) ([]byte, error) {
	if len(raw) == 0 {
		return nil, errors.New("forwarded job finished without result bytes")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// buildRepro assembles the deterministic repro bundle for a job that is
// about to turn terminal-failed: the resolved params, the failing
// point's spec and content address when the sweep pinned one, and the
// coordinator's fault-injection state — everything cascade-sim -repro
// needs to replay the failure bit-for-bit, nothing tied to the fleet
// topology the failure happened on.
func (c *Coordinator) buildRepro(j *fjob, err error) ([]byte, error) {
	b := server.ReproBundle{
		Schema:     canon.ReproSchema,
		Job:        j.id,
		Experiment: j.experiment,
		Params:     j.params,
		JobKey:     j.key,
		Error:      err.Error(),
		ErrorCode:  codeOf(err),
	}
	var fe *fabricError
	if errors.As(err, &fe) && fe.detail != "" {
		b.Error, b.ErrorCode = fe.detail, fe.code
	}
	if j.failSpec != nil {
		sp := *j.failSpec
		b.Point = &sp
		if key, kerr := canon.PointKey(sp); kerr == nil {
			b.PointKey = key
		}
		if j.failDetail != "" {
			b.Error, b.ErrorCode = j.failDetail, j.failCode
		}
	}
	if c.cfg.FaultSpec != "" {
		b.Faults = &server.ReproFaults{Spec: c.cfg.FaultSpec, Seed: c.cfg.FaultSeed,
			Fired: server.FiredCounts(c.faults, FaultSites())}
	}
	if _, err := b.DeriveKey(); err != nil {
		return nil, err
	}
	return json.Marshal(b)
}

// Repro returns the raw repro bundle of a terminal-failed job.
func (c *Coordinator) Repro(id string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, &fabricError{code: server.CodeNotFound, err: fmt.Errorf("unknown job %q", id)}
	}
	if j.state != server.StateFailed {
		return nil, &fabricError{code: server.CodeBadRequest,
			err: fmt.Errorf("job %q is %s; repro bundles exist only for failed jobs", id, j.state)}
	}
	if len(j.repro) == 0 {
		return nil, &fabricError{code: server.CodeNotFound,
			err: fmt.Errorf("job %q failed without a repro bundle", id)}
	}
	return j.repro, nil
}

// finishLocked moves a job to its terminal state and wakes waiters.
// Callers must hold c.mu.
func (c *Coordinator) finishLocked(j *fjob, val []byte, err error) {
	j.finished = time.Now()
	if err != nil {
		j.state = server.StateFailed
		j.errMsg = err.Error()
		j.errCode = codeOf(err)
		c.metrics.Inc(mJobsFailed)
	} else {
		j.state = server.StateDone
		j.result = val
		c.metrics.Inc(mJobsCompleted)
	}
	close(j.done)
}
