package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

const (
	// fillScale is the scale of the fig2 and fig6 results the cache
	// holds (120–220 KB each) and of the filled quickstart jobs.
	fillScale = 0.01
	// missScale is the fresh quickstart jobs' scale: ~10 ms of
	// simulation here (~45 ms at fillScale), so misses stay cheap and
	// the serving layers keep a visible share of a round.
	missScale = 0.001
	// hitsPerKey is how often one round resubmits each filled job.
	hitsPerKey = 36
	// missesPerRound fresh quickstart jobs make a tenth of a round.
	missesPerRound = 28
	// missCheckEvery: every this-many-th miss is re-run in-process and
	// compared byte for byte.
	missCheckEvery = 10
	// fillRepeats is how many times set-up fills a cache (each fill
	// simulates every fill job); setup_s is the median.
	fillRepeats = 3
	// requestTimeout bounds one request; a timed-out request fails.
	requestTimeout = 30 * time.Second
)

// chunkChoicesKB are the quickstart chunk budgets the seed picks from.
var chunkChoicesKB = []int{16, 32, 48, 64, 96, 128}

type jobSpec struct {
	Experiment string           `json:"experiment"`
	Params     server.JobParams `json:"params"`
}

// fillSet is the seeded set of jobs set-up puts in the cache: table1,
// quickstart at four seeded chunk budgets, fig2 and fig6.
func fillSet(rng *rand.Rand) []jobSpec {
	jobs := []jobSpec{{Experiment: "table1"}}
	for _, i := range rng.Perm(len(chunkChoicesKB))[:4] {
		jobs = append(jobs, jobSpec{"quickstart", server.JobParams{Scale: fillScale, ChunkKB: chunkChoicesKB[i]}})
	}
	return append(jobs,
		jobSpec{"fig2", server.JobParams{Scale: fillScale}},
		jobSpec{"fig6", server.JobParams{Scale: fillScale}})
}

// request is one entry of a round: a resubmitted filled job (hit) or a
// fresh quickstart job (miss).
type request struct {
	job  jobSpec
	fill int // index into the fill set; -1 for a miss
}

// missSource hands out fresh quickstart jobs: a seeded chunk budget and
// a scale nudged by a unique offset far too small to change the array
// length, so every key is new while the simulated work stays that of
// quickstart at missScale.
type missSource struct {
	rng  *rand.Rand
	next int64
}

func (m *missSource) job() jobSpec {
	m.next++
	return jobSpec{"quickstart", server.JobParams{
		Scale:   missScale + float64(m.next)*1e-12,
		ChunkKB: chunkChoicesKB[m.rng.Intn(len(chunkChoicesKB))],
	}}
}

// round builds one seeded, shuffled round of requests.
func round(rng *rand.Rand, fills []jobSpec, misses *missSource) []request {
	var rs []request
	for i, j := range fills {
		for k := 0; k < hitsPerKey; k++ {
			rs = append(rs, request{job: j, fill: i})
		}
	}
	for k := 0; k < missesPerRound; k++ {
		rs = append(rs, request{job: misses.job(), fill: -1})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// served is the serving daemon over a filled disk cache.
type served struct {
	srv  *server.Server
	http *httpService
	dir  string
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.close()
	_ = s.srv.Shutdown(ctx) // misses in flight are done; a drain timeout leaves nothing to report
	os.RemoveAll(s.dir)
}

func startServer(dir string) (*served, error) {
	s, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	h, err := serveHTTP(s.Handler())
	if err != nil {
		_ = s.Shutdown(context.Background())
		return nil, err
	}
	return &served{srv: s, http: h, dir: dir}, nil
}

// fillCache runs every fill job on a server over a fresh cache dir,
// shuts it down, and starts the serving server over the same dir, so
// its first hit on each key reads the checksummed disk entry. It
// returns that server and the first answer for each fill job.
func fillCache(ctx context.Context, client *http.Client, fills []jobSpec) (*served, [][]byte, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, nil, err
	}
	filler, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	answers := make([][]byte, len(fills))
	for i, j := range fills {
		o := doRequest(ctx, client, filler.http.url, j, nil, nil)
		if o.err != nil {
			filler.close()
			return nil, nil, fmt.Errorf("fill %s: %w", j.Experiment, o.err)
		}
		answers[i] = o.result
	}
	filler.dir = "" // keep the filled dir for the serving server
	filler.close()
	s, err := startServer(dir)
	return s, answers, err
}

// outcome is one request's measurement.
type outcome struct {
	hit           bool
	submit, total time.Duration
	result        []byte
	err           error
}

// doRequest submits a job and long-polls its result: POST /v1/jobs, then
// GET /v1/jobs/{id}?wait.
func doRequest(ctx context.Context, client *http.Client, base string, j jobSpec, tr *tracer, parent *active) outcome {
	var o outcome
	t := time.Now()
	sp := tr.begin(j.Experiment, "server.submit", parent)
	env, status, err := postJSON(ctx, client, base+"/v1/jobs", j)
	sp.end()
	o.submit = time.Since(t)
	switch {
	case err != nil:
		o.err = err
	case requestFailed(status, nil) || env.Job == nil:
		o.err = fmt.Errorf("submit: status %d", status)
	}
	if o.err != nil {
		return o
	}
	o.hit = env.Job.Cached
	sp = tr.begin(j.Experiment, "server.wait", parent)
	env, status, err = getJSON(ctx, client, base+"/v1/jobs/"+env.Job.ID+"?wait=25s")
	sp.end()
	o.total = time.Since(t)
	switch {
	case err != nil:
		o.err = err
	case requestFailed(status, nil) || env.Job == nil:
		o.err = fmt.Errorf("wait: status %d", status)
	case env.Job.State != server.StateDone:
		o.err = fmt.Errorf("job %s ended %s: %s", env.Job.ID, env.Job.State, env.Job.Error)
	default:
		o.result = env.Result
	}
	return o
}

func getJSON(ctx context.Context, client *http.Client, url string) (server.Envelope, int, error) {
	var env server.Envelope
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return env, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return env, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&env)
	return env, resp.StatusCode, err
}

// serveStats accumulates a run's request measurements.
type serveStats struct {
	hitMS, missMS, allMS []float64
	submitUS, waitUS     []float64
	hitBytes             int64
	walls                []float64
	accesses             int64
	missChecks           []jobSpec
	missAnswers          [][]byte
}

// runRound sends one round through two closed-loop clients and checks
// every hit against the first answer for its key.
func runRound(ctx context.Context, run *runCtx, s *served, client *http.Client, rs []request, answers [][]byte, st *serveStats, tr *tracer) {
	work := make(chan request, len(rs)) // the whole round, queued up front
	for _, r := range rs {
		work <- r
	}
	close(work)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				root := tr.begin(r.job.Experiment, "server.request", nil)
				o := doRequest(rctx, client, s.http.url, r.job, tr, root)
				root.end()
				cancel()
				mu.Lock()
				recordOutcome(run, st, r, o, answers)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.walls = append(st.walls, time.Since(start).Seconds())
}

func recordOutcome(run *runCtx, st *serveStats, r request, o outcome, answers [][]byte) {
	run.attempted++
	if o.err != nil {
		run.failed++
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", o.err)
		return
	}
	lat := ms(o.total)
	st.allMS = append(st.allMS, lat)
	st.submitUS = append(st.submitUS, us(o.submit))
	st.waitUS = append(st.waitUS, us(o.total-o.submit))
	if r.fill >= 0 {
		if !o.hit {
			run.fail("resubmitted %s was not a cache hit", r.job.Experiment)
		}
		if !bytes.Equal(o.result, answers[r.fill]) {
			run.fail("hit on %s differs from the first answer for its key", r.job.Experiment)
		}
		st.hitMS = append(st.hitMS, lat)
		st.hitBytes += int64(len(o.result))
		return
	}
	if o.hit {
		run.fail("fresh quickstart job %+v was a cache hit", r.job.Params)
	}
	st.missMS = append(st.missMS, lat)
	st.accesses += simAccesses(o.result)
	if len(st.missMS)%missCheckEvery == 1 {
		st.missChecks = append(st.missChecks, r.job)
		st.missAnswers = append(st.missAnswers, o.result)
	}
}

// checkMisses re-runs the sampled misses in-process and compares their
// canonical bytes.
func checkMisses(ctx context.Context, run *runCtx, st *serveStats) error {
	for i, j := range st.missChecks {
		e, _ := experiments.Lookup(j.Experiment)
		r, err := e.Run(ctx, j.Params.WithDefaults().RunConfig())
		if err != nil {
			return err
		}
		rendered, err := server.RenderJSON(r)
		if err != nil {
			return err
		}
		want, err := canonical(rendered)
		if err != nil {
			return err
		}
		got, err := canonical(st.missAnswers[i])
		if err != nil || !bytes.Equal(got, want) {
			run.fail("miss %+v differs from an in-process run", j.Params)
		}
	}
	run.extra["misses_checked"] = len(st.missChecks)
	return nil
}

// runServeHot is one server over a filled disk cache, driven by two
// closed-loop clients with a seeded mix of hits and fresh misses.
func runServeHot(run *runCtx) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(run.seed))
	fills := fillSet(rng)
	misses := &missSource{rng: rng, next: rng.Int63n(1 << 20)}
	client := newClient()
	defer client.CloseIdleConnections()

	var setups []float64
	var s *served
	var answers [][]byte
	for i := 0; i < fillRepeats; i++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		var err error
		if s, answers, err = fillCache(ctx, client, fills); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()
	run.extra["fill_set"] = fills
	settle()
	resetPeakRSS(run)
	run.extra["setup_s_samples"] = setups

	var st serveStats
	untracedRounds := 0
	for start := time.Now(); untracedRounds == 0 || time.Since(start) < run.seconds; untracedRounds++ {
		if run.traced && untracedRounds == 5 {
			break
		}
		settle()
		runRound(ctx, run, s, client, round(rng, fills, misses), answers, &st, nil)
	}
	if !run.traced {
		wall := median(st.walls)
		run.set("setup_s", median(setups))
		run.set("wall_s", wall)
		run.set("work_per_s", float64(len(fills)*hitsPerKey+missesPerRound)/wall)
		run.set("sim_accesses_per_s", float64(st.accesses)/sum(st.walls))
		run.set("p50_ms", median(st.allMS))
		recordSplit(run, &st)
		return checkMisses(ctx, run, &st)
	}

	untracedWall := median(st.walls)
	if err := checkMisses(ctx, run, &st); err != nil {
		return err
	}
	st = serveStats{}
	for start := time.Now(); len(st.walls) == 0 || time.Since(start) < run.seconds; {
		settle()
		runRound(ctx, run, s, client, round(rng, fills, misses), answers, &st, run.tr)
	}
	if err := checkMisses(ctx, run, &st); err != nil {
		return err
	}
	recordSplit(run, &st)
	run.set("server.submit_us", median(st.submitUS))
	run.set("server.wait_us", median(st.waitUS))
	run.set("server.hit_bytes_mean", float64(st.hitBytes)/float64(len(st.hitMS)))
	m := s.srv.Metrics()
	for _, name := range []string{"cache.hits", "cache.misses", "cache.disk_hits", "jobs.coalesced", "jobs.rejected"} {
		run.set("server."+name, float64(m[name]))
	}
	if err := serverCacheProbe(run, fills, answers); err != nil {
		return err
	}

	pass, wall, err := decomposedPass(ctx, run.tr, []string{"fig2", "fig6"}, fillScale)
	if err != nil {
		return err
	}
	for _, ds := range pass {
		for i, j := range fills {
			if j.Experiment != ds.name {
				continue
			}
			if want, err := canonical(answers[i]); err != nil || !bytes.Equal(ds.canon, want) {
				run.fail("decomposed %s differs from the served answer", ds.name)
			}
		}
	}
	recordPass(run, pass, wall)
	if err := simulatorLayers(ctx, run, pass); err != nil {
		return err
	}
	return finishTrace(run, time.Duration((median(st.walls)-untracedWall)*float64(time.Second)))
}

// recordSplit reports hit and miss latency apart, each at its median
// and its highest percentile with ten samples beyond it.
func recordSplit(run *runCtx, st *serveStats) {
	for _, part := range []struct {
		name string
		xs   []float64
	}{{"hit", st.hitMS}, {"miss", st.missMS}} {
		run.extra[part.name+"_samples"] = len(part.xs)
		if len(part.xs) == 0 {
			continue
		}
		run.extra[part.name+"_p50_ms"] = median(part.xs)
		if run.traced {
			run.set("server."+part.name+"_p50_ms", median(part.xs))
			run.set("server."+part.name+"_samples", float64(len(part.xs)))
		}
		if p, v, ok := tail(part.xs); ok {
			run.extra[part.name+"_tail"] = map[string]float64{"pct": p, "ms": v}
			if run.traced {
				run.set("server."+part.name+"_tail_ms", v)
				run.set("server."+part.name+"_tail_pct", p)
			}
		}
	}
}

// serverCacheProbe times server.Cache Put (disk write) and Get (disk
// read and checksum, on a fresh Cache over the same dir) and JobKey on
// the run's keys.
func serverCacheProbe(run *runCtx, fills []jobSpec, answers [][]byte) error {
	keys := make([]string, len(fills))
	const keyRounds = 200
	t := time.Now()
	for r := 0; r < keyRounds; r++ {
		for i, j := range fills {
			k, err := server.JobKey(j.Experiment, j.Params.WithDefaults())
			if err != nil {
				return err
			}
			keys[i] = server.RenderKey(k, "json")
		}
	}
	run.set("server.job_key_us", us(time.Since(t))/float64(keyRounds*len(fills)))

	var puts, gets []float64
	for r := 0; r < 5; r++ {
		dir, err := os.MkdirTemp("", "perfbench-cache-")
		if err != nil {
			return err
		}
		c, err := server.NewCache(dir, nil)
		if err != nil {
			return err
		}
		for i, k := range keys {
			sp := run.tr.begin(k, "server.Cache.Put", nil)
			err := c.Put(k, answers[i])
			puts = append(puts, us(sp.end()))
			if err != nil {
				return err
			}
		}
		fresh, err := server.NewCache(dir, nil)
		if err != nil {
			return err
		}
		for i, k := range keys {
			sp := run.tr.begin(k, "server.Cache.Get", nil)
			v, ok := fresh.Get(k)
			gets = append(gets, us(sp.end()))
			if !ok || !bytes.Equal(v, answers[i]) {
				run.fail("server cache probe: %s did not read back", k)
			}
		}
		os.RemoveAll(dir)
	}
	run.set("server.cache_put_us", median(puts))
	run.set("server.cache_get_us", median(gets))
	return nil
}
