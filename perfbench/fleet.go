package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/server"
)

// fleetWorkers is the fleet's size: one worker per core here.
const fleetWorkers = 2

// progressInterval is the coordinator's ndjson frame cadence: fine
// enough to time the first finished point, cheap at a few hundred
// frames per sweep.
const progressInterval = 10 * time.Millisecond

// httpService is one handler served on a loopback port.
type httpService struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and every open connection and waits for the
// serving goroutine to exit.
func (s *httpService) close() {
	_ = s.srv.Close() // the only error is the listener's close error
	<-s.done
}

// fleet is an in-process coordinator with its workers, each on its own
// loopback port, the workers enlisted over HTTP as cascade-server
// -coordinator enlists them.
type fleet struct {
	coord     *fabric.Coordinator
	coordHTTP *httpService
	workers   []*server.Server
	workHTTP  []*httpService
	stop      context.CancelFunc
	enlisted  sync.WaitGroup
	dir       string
}

// bootFleet starts a fresh fleet with the journal on in a temp dir and
// waits until every worker is alive at the coordinator.
func bootFleet() (*fleet, error) {
	dir, err := os.MkdirTemp("", "perfbench-fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.coord, err = fabric.New(fabric.Config{
		JournalDir:       filepath.Join(dir, "journal"),
		ProgressInterval: progressInterval,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.coordHTTP, err = serveHTTP(f.coord.Handler()); err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		s, err := server.New(server.Config{Workers: experiments.DefaultJobWorkers(), WarmPrefixes: true})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, s)
		h, err := serveHTTP(s.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.workHTTP = append(f.workHTTP, h)
		f.enlisted.Add(1)
		go func(name, url string) {
			defer f.enlisted.Done()
			// Enlist only returns once the fleet is stopped.
			_ = fabric.Enlist(ctx, fabric.EnlistConfig{Coordinator: f.coordHTTP.url, Name: name, Advertise: url})
		}(fmt.Sprintf("w%d", i), h.url)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Metrics()["fabric.workers.alive"] < fleetWorkers {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet workers did not enlist within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the fleet and waits for every goroutine it started.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	f.enlisted.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.coord != nil {
		_ = f.coord.Shutdown(ctx) // a timed-out drain cancels the sweeps; nothing is left to report
	}
	if f.coordHTTP != nil {
		f.coordHTTP.close()
	}
	for _, s := range f.workers {
		_ = s.Shutdown(ctx)
	}
	for _, h := range f.workHTTP {
		h.close()
	}
	os.RemoveAll(f.dir)
}

// workerPoints is each worker's points.executed.
func (f *fleet) workerPoints() []int64 {
	out := make([]int64, len(f.workers))
	for i, s := range f.workers {
		out[i] = s.Metrics()["points.executed"]
	}
	return out
}

// newClient returns an HTTP client holding at most two connections to
// any host, the benchmark's client budget.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// fleetUnitResult is one pass of the three sweeps through a fleet.
type fleetUnitResult struct {
	wall         time.Duration
	jobMS        []float64
	firstPointMS float64
	accesses     int64
	failedPoints int
}

// runFleet is the paper's sweeps through an in-process coordinator and
// two workers over loopback HTTP, one fresh fleet per pass.
func runFleet(run *runCtx) error {
	ctx := context.Background()
	client := newClient()
	defer client.CloseIdleConnections()
	points := 0
	for _, name := range sweepNames {
		points += pointCount(name, sweepScale)
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		f, err := bootFleet()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		f.close()
	}

	settle()
	resetPeakRSS(run)
	var walls, jobMS []float64
	var accesses int64
	var tracedUnit fleetUnitResult
	var tracedFleet *fleet
	passes := 0
	for start := time.Now(); passes == 0 || (!run.traced && time.Since(start) < run.seconds) || (run.traced && passes < 2); passes++ {
		settle()
		t := time.Now()
		f, err := bootFleet()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		var tr *tracer
		if run.traced && passes == 1 {
			tr = run.tr
		}
		u, err := fleetUnit(ctx, run, f, client, tr)
		if err == nil {
			checkConservation(run, f)
		}
		if tr != nil {
			tracedUnit, tracedFleet = u, f
		} else {
			f.close()
		}
		if err != nil {
			return err
		}
		run.attempted += points
		run.failed += u.failedPoints
		if tr == nil {
			walls = append(walls, u.wall.Seconds())
			jobMS = append(jobMS, u.jobMS...)
			accesses = u.accesses
		}
	}
	run.extra["setup_s_samples"] = setups
	run.extra["wall_s_samples"] = walls
	if !run.traced {
		wall := median(walls)
		run.set("setup_s", median(setups))
		run.set("wall_s", wall)
		run.set("work_per_s", float64(points)/wall)
		run.set("sim_accesses_per_s", float64(accesses)/wall)
		run.set("p50_ms", median(jobMS))
		run.extra["points_per_unit"] = points
		run.extra["sim_accesses_per_unit"] = accesses
		return nil
	}

	fabricLayers(run, tracedFleet, tracedUnit)
	tracedFleet.close()
	settle()
	pass, wall, err := decomposedPass(ctx, run.tr, sweepNames, sweepScale)
	if err != nil {
		return err
	}
	for _, ds := range pass {
		checkGolden(run, "decomposed pass", ds.name, ds.canon)
	}
	recordPass(run, pass, wall)
	if err := simulatorLayers(ctx, run, pass); err != nil {
		return err
	}
	if err := journalProbe(run, pass); err != nil {
		return err
	}
	canonProbe(run, pass)
	if err := pointOverheadProbe(ctx, run, client, pass); err != nil {
		return err
	}
	return finishTrace(run, tracedUnit.wall-time.Duration(walls[0]*float64(time.Second)))
}

// checkConservation gates the fleet's point accounting: every
// assignment ends completed, retried or failed, and none fails.
func checkConservation(run *runCtx, f *fleet) {
	m := f.coord.Metrics()
	a, c, r, x := m["fabric.points.assigned"], m["fabric.points.completed"], m["fabric.points.retried"], m["fabric.points.failed"]
	if a != c+r+x {
		run.fail("fleet: points assigned %d != completed %d + retried %d + failed %d", a, c, r, x)
	}
	if x != 0 {
		run.fail("fleet: %d points failed", x)
	}
}

// fabricLayers reads the traced fleet's counters.
func fabricLayers(run *runCtx, f *fleet, u fleetUnitResult) {
	m := f.coord.Metrics()
	for _, name := range []string{"fabric.points.assigned", "fabric.points.completed", "fabric.points.retried", "fabric.points.failed"} {
		run.set(name, float64(m[name]))
	}
	if b := m["fabric.batches.dispatched"]; b > 0 {
		run.set("fabric.batch_mean", float64(m["fabric.points.assigned"])/float64(b))
	}
	per := f.workerPoints()
	var total, most int64
	for _, p := range per {
		total += p
		most = max(most, p)
	}
	if total > 0 {
		run.set("fabric.worker_imbalance", float64(most)/(float64(total)/float64(len(per))))
	}
	run.extra["worker_points_executed"] = per
	run.set("fabric.first_point_ms", u.firstPointMS)
	run.set("journal.records", float64(m["fabric.journal.records"]))
}

// jobHandle is one submitted sweep job.
type jobHandle struct {
	name      string
	id        string
	submitted time.Time
	span      *active
}

// fleetUnit submits the sweeps to the coordinator, then streams their
// ?wait responses as ndjson on at most two connections. The unit's wall
// time runs from the first submit to the last result.
func fleetUnit(ctx context.Context, run *runCtx, f *fleet, client *http.Client, tr *tracer) (fleetUnitResult, error) {
	var u fleetUnitResult
	start := time.Now()
	jobs := make([]*jobHandle, len(sweepNames))
	for i, name := range sweepNames {
		jh := &jobHandle{name: name, submitted: time.Now()}
		jh.span = tr.begin(name, "fabric.job", nil)
		sp := tr.begin(name, "fabric.submit", jh.span)
		env, status, err := postJSON(ctx, client, f.coordHTTP.url+"/v1/jobs",
			map[string]interface{}{"experiment": name, "params": map[string]interface{}{"scale": sweepScale}})
		sp.end()
		if err != nil || requestFailed(status, nil) || env.Job == nil {
			return u, fmt.Errorf("submit %s: status %d: %v", name, status, err)
		}
		jh.id = env.Job.ID
		jobs[i] = jh
	}

	var mu sync.Mutex
	next := make(chan *jobHandle, len(jobs)) // holds every job: streams pick them up in order
	for _, jh := range jobs {
		next <- jh
	}
	close(next)
	var wg sync.WaitGroup
	var firstErr error
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jh := range next {
				res, finished, first, err := streamJob(ctx, client, f.coordHTTP.url, jh, tr)
				jh.span.end()
				mu.Lock()
				if err != nil {
					u.failedPoints += pointCount(jh.name, sweepScale)
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", jh.name, err)
					}
				} else {
					u.jobMS = append(u.jobMS, ms(finished.Sub(jh.submitted)))
					if jh == jobs[0] {
						u.firstPointMS = ms(first.Sub(jh.submitted))
					}
					checkGolden(run, "fleet", jh.name, res)
					u.accesses += simAccesses(res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	u.wall = time.Since(start)
	if firstErr != nil {
		run.fail("fleet job failed: %v", firstErr)
	}
	return u, nil
}

// streamJob long-polls one job as ndjson and returns its canonical
// result, when the coordinator finished it, and when the first frame
// reporting a finished point arrived.
func streamJob(ctx context.Context, client *http.Client, base string, jh *jobHandle, tr *tracer) ([]byte, time.Time, time.Time, error) {
	var first time.Time
	sp := tr.begin(jh.name, "fabric.wait", jh.span)
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+jh.id+"?wait=170s", nil)
	if err != nil {
		return nil, first, first, err
	}
	req.Header.Set("Accept", server.NDJSONContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, first, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, first, fmt.Errorf("wait: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	var last server.Envelope
	for sc.Scan() {
		last = server.Envelope{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, first, first, fmt.Errorf("bad frame: %w", err)
		}
		if first.IsZero() && last.Progress != nil && last.Progress.PointsDone > 0 {
			first = time.Now()
			tr.begin(jh.name, "fabric.first_point", jh.span).end()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, first, first, err
	}
	if last.Job == nil || last.Job.State != server.StateDone || last.Job.Finished == nil {
		return nil, first, first, fmt.Errorf("job %s ended %+v", jh.id, last.Error)
	}
	if first.IsZero() {
		first = *last.Job.Finished
	}
	canon, err := canonical(last.Result)
	return canon, *last.Job.Finished, first, err
}

// postJSON posts body as JSON and decodes the envelope answer.
func postJSON(ctx context.Context, client *http.Client, url string, body interface{}) (server.Envelope, int, error) {
	var env server.Envelope
	b, err := json.Marshal(body)
	if err != nil {
		return env, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return env, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return env, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&env)
	return env, resp.StatusCode, err
}
