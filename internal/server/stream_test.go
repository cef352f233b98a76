package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// progressExperiment reports point progress like a real sweep does —
// through the context — advancing one point each time step is signalled,
// and finishing when its points are exhausted.
func progressExperiment(name string, total int, step <-chan struct{}) experiments.Experiment {
	return experiments.Experiment{
		Name:        name,
		Description: "test stand-in",
		Run: func(ctx context.Context, rc experiments.RunConfig) (experiments.Renderable, error) {
			for i := 1; i <= total; i++ {
				select {
				case <-step:
					experiments.ReportPointProgress(ctx, i, total)
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fakeResult{Value: fmt.Sprintf("%s done", name)}, nil
		},
	}
}

// TestStreamingWaitKeepAlive pins the streaming long-poll contract: a
// ?wait request with "Accept: application/x-ndjson" receives periodic
// one-line envelope frames carrying live points_done/points_total while
// the job runs, and a final frame that is the complete job envelope —
// so a slow sweep is distinguishable from a dead connection.
func TestStreamingWaitKeepAlive(t *testing.T) {
	const total = 3
	step := make(chan struct{}, total)
	s, err := New(Config{
		Workers:          1,
		Experiments:      []experiments.Experiment{progressExperiment("slow", total, step)},
		ProgressInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("slow", JobParams{})
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"?wait=10s", nil)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != NDJSONContentType {
		t.Errorf("Content-Type = %q, want %q", got, NDJSONContentType)
	}

	// Let the sweep advance one point at a time, with enough wall time
	// between points for keep-alive frames to fire.
	go func() {
		for i := 0; i < total; i++ {
			time.Sleep(25 * time.Millisecond)
			step <- struct{}{}
		}
	}()

	var frames []Envelope
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("frame is not one JSON line: %v\n%s", err, line)
		}
		if env.Version != APIVersion {
			t.Errorf("frame version = %q", env.Version)
		}
		frames = append(frames, env)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want several keep-alives plus a final", len(frames))
	}

	final := frames[len(frames)-1]
	if final.Job == nil || final.Job.State != StateDone || len(final.Result) == 0 {
		t.Fatalf("final frame is not the completed envelope: %+v", final)
	}
	var res fakeResult
	if err := json.Unmarshal(final.Result, &res); err != nil || res.Value != "slow done" {
		t.Errorf("final result = %q, %v", res.Value, err)
	}

	// Keep-alive frames carry monotonically nondecreasing progress, and
	// at least one observed the sweep mid-flight.
	sawLive := false
	prev := -1
	for _, f := range frames[:len(frames)-1] {
		if f.Job == nil || f.Job.State == StateDone {
			t.Errorf("keep-alive frame has unexpected shape: %+v", f)
		}
		if len(f.Result) != 0 {
			t.Error("keep-alive frame carries a result payload")
		}
		if f.Progress != nil {
			if f.Progress.PointsTotal != total {
				t.Errorf("points_total = %d, want %d", f.Progress.PointsTotal, total)
			}
			if f.Progress.PointsDone < prev {
				t.Errorf("points_done went backwards: %d after %d", f.Progress.PointsDone, prev)
			}
			prev = f.Progress.PointsDone
			if f.Progress.PointsDone > 0 && f.Progress.PointsDone < total {
				sawLive = true
			}
		}
	}
	if !sawLive {
		t.Error("no keep-alive frame observed the sweep mid-flight")
	}
}

// TestStreamingTickFinishRace pins the keep-alive/finish race
// deterministically: the test hook finishes the job between a
// keep-alive tick and the view that tick reads. That view is terminal,
// so it must not go out as a keep-alive (a "done" frame without the
// result); the stream falls through to the final frame instead.
func TestStreamingTickFinishRace(t *testing.T) {
	const total = 2
	step := make(chan struct{}, total)
	s, err := New(Config{
		Workers:          1,
		Experiments:      []experiments.Experiment{progressExperiment("raced", total, step)},
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("raced", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int32
	s.streamTickHook = func() {
		if ticks.Add(1) > 1 {
			return
		}
		for i := 0; i < total; i++ {
			step <- struct{}{}
		}
		if done, _ := s.Await(v.ID, 10*time.Second, nil); done.State != StateDone {
			t.Errorf("job did not finish inside the hook: %s", done.State)
		}
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"?wait=10s", nil)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []Envelope
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var env Envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad frame: %v\n%s", err, sc.Bytes())
		}
		frames = append(frames, env)
	}
	if ticks.Load() == 0 {
		t.Fatal("the stream never ticked; the hook did not run")
	}
	for i, f := range frames[:len(frames)-1] {
		if f.Job == nil || f.Job.State == StateDone || f.Job.State == StateFailed {
			t.Errorf("keep-alive frame %d carries state %v", i, f.Job)
		}
	}
	final := frames[len(frames)-1]
	if final.Job == nil || final.Job.State != StateDone || len(final.Result) == 0 {
		t.Fatalf("final frame is not the completed envelope: %+v", final)
	}
}

// TestStreamingWaitTimeout pins the wait-bound: a streaming poll whose
// wait elapses before the job finishes ends with a frame that reports
// the job still running (progress attached), not an error and not a
// hang.
func TestStreamingWaitTimeout(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:          1,
		Experiments:      []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
		ProgressInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"?wait=50ms", nil)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var last Envelope
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		n++
	}
	if n < 2 {
		t.Errorf("got %d frames across a 50ms wait with a 5ms tick, want several", n)
	}
	if last.Job == nil || last.Job.State != StateRunning || last.Error != nil {
		t.Errorf("final frame after wait timeout = %+v, want a running job and no error", last)
	}
}

// TestStreamingWaitClientDisconnect pins the decoupling between a
// streaming watcher and the job it watches: when the client drops the
// connection mid-stream, the job keeps running to completion, and the
// goroutines servicing the dead stream are torn down rather than
// leaked. A monitoring dashboard closing a tab must never cancel or
// orphan the sweep underneath it.
func TestStreamingWaitClientDisconnect(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	var runs atomic.Int32
	s, err := New(Config{
		Workers:          1,
		Experiments:      []experiments.Experiment{gatedExperiment("fake", gate, running, &runs)},
		ProgressInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit("fake", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	// Steady state: server up, job running, no stream attached yet.
	// Goroutines must return to this level once the stream dies.
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+v.ID+"?wait=10s", nil)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read at least one keep-alive frame so the stream is demonstrably
	// live before the disconnect.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no frame before disconnect: %v", sc.Err())
	}
	var env Envelope
	if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
		t.Fatalf("bad frame: %v", err)
	}
	if env.Job == nil || env.Job.State != StateRunning {
		t.Fatalf("first frame = %+v, want the running job", env)
	}

	// Drop the connection mid-stream, then let the experiment finish.
	cancel()
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, ok := s.Job(v.ID); ok && j.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			j, _ := s.Job(v.ID)
			t.Fatalf("job never finished after client disconnect: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runs = %d, want 1 (disconnect must not rerun or cancel the job)", got)
	}
	waitNoGoroutineLeaks(t, baseline)
}

// TestStreamingWaitUnknownJob pins that the stream path refuses an
// unknown id with an ordinary envelope error.
func TestStreamingWaitUnknownJob(t *testing.T) {
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/nope?wait=1s", nil)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != CodeNotFound {
		t.Errorf("unknown job: status %d, error %+v", resp.StatusCode, env.Error)
	}
}
