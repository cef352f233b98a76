package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// fillEntry stores val on disk under the job key of experiment with p,
// as a finished run (or cascade-sim -cache) would.
func fillEntry(t *testing.T, dir, experiment string, p JobParams, val []byte) {
	t.Helper()
	jk, err := JobKey(experiment, p)
	if err != nil {
		t.Fatal(err)
	}
	key := RenderKey(jk, "json")
	c, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
}

// rawRequest performs one request and returns the undecoded body.
func rawRequest(t *testing.T, method, url, version, body string) ([]byte, int) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != "" {
		req.Header.Set(VersionHeader, version)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp.StatusCode
}

// TestHitServesStoredBytes pins the verbatim-result path: a cache hit's
// "result" is the stored entry byte for byte — never decoded, compacted
// or re-indented — in the envelope and the legacy body alike, on POST
// and on GET.
func TestHitServesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	p := JobParams{N: 7}
	// An indented entry with a trailing newline, as RenderJSON writes,
	// with nested objects and an HTML-significant string so any
	// re-encoding would show.
	entry, err := json.MarshalIndent(map[string]interface{}{
		"value": "a<b && c>d",
		"rows":  []map[string]int{{"procs": 2, "cycles": 10}, {"procs": 4, "cycles": 7}},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	entry = append(entry, '\n')
	fillEntry(t, dir, "echo", p, entry)

	s, err := New(Config{Workers: 1, CacheDir: dir, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := `{"experiment": "echo", "params": {"n": 7}}`
	for _, ver := range []string{APIVersion, LegacyAPIVersion} {
		post, code := rawRequest(t, "POST", ts.URL+"/v1/jobs", ver, submit)
		if code != http.StatusOK {
			t.Fatalf("%s POST: status %d, want 200 (cache hit)\n%s", ver, code, post)
		}
		var id string
		var result json.RawMessage
		if ver == APIVersion {
			var env Envelope
			if err := json.Unmarshal(post, &env); err != nil {
				t.Fatal(err)
			}
			id, result = env.Job.ID, env.Result
			if !env.Job.Cached {
				t.Errorf("%s POST: job not marked cached", ver)
			}
		} else {
			var v JobView
			if err := json.Unmarshal(post, &v); err != nil {
				t.Fatal(err)
			}
			id, result = v.ID, v.Result
		}
		get, code := rawRequest(t, "GET", ts.URL+"/v1/jobs/"+id+"?wait=5s", ver, "")
		if code != http.StatusOK {
			t.Fatalf("%s GET: status %d", ver, code)
		}
		for name, body := range map[string][]byte{"POST": post, "GET": get} {
			if !bytes.Contains(body, append([]byte(`"result": `), entry...)) {
				t.Errorf("%s %s: body does not carry the stored entry verbatim:\n%s", ver, name, body)
			}
		}
		// A decoder sees the entry itself (RawMessage drops only the
		// entry's trailing newline, which is whitespace around the value).
		if !bytes.Equal(result, bytes.TrimRight(entry, "\n")) {
			t.Errorf("%s POST: decoded result differs from the stored entry:\n got %s\nwant %s", ver, result, entry)
		}
	}
	assertConservation(t, s)
}

// TestHitInvalidJSONEntryFails pins the one validity check: an entry
// whose checksum holds but whose bytes are not JSON fails its job with
// the typed invalid_result code, and its bytes never reach a response.
func TestHitInvalidJSONEntryFails(t *testing.T) {
	dir := t.TempDir()
	const junk = `{"value": "unterminated`
	fillEntry(t, dir, "echo", JobParams{N: 7}, []byte(junk))

	s, err := New(Config{Workers: 1, CacheDir: dir, Experiments: []experiments.Experiment{echoExperiment("echo")}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post, _ := rawRequest(t, "POST", ts.URL+"/v1/jobs", "", `{"experiment": "echo", "params": {"n": 7}}`)
	var env Envelope
	if err := json.Unmarshal(post, &env); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, post)
	}
	if env.Job == nil || env.Job.State != StateFailed {
		t.Fatalf("job = %+v, want failed", env.Job)
	}
	if env.Error == nil || env.Error.Code != CodeInvalidResult {
		t.Errorf("error = %+v, want code %s", env.Error, CodeInvalidResult)
	}
	get, _ := rawRequest(t, "GET", ts.URL+"/v1/jobs/"+env.Job.ID, LegacyAPIVersion, "")
	for name, body := range map[string][]byte{"POST": post, "legacy GET": get} {
		if !json.Valid(body) || bytes.Contains(body, []byte("unterminated")) {
			t.Errorf("%s: invalid entry spliced into the response:\n%s", name, body)
		}
	}
	assertConservation(t, s)
}

// TestServerJobRetention pins the bounded job table: past
// maxFinishedJobs finished jobs the oldest are forgotten — their IDs
// answer 404 not_found and their checkpoint-stream attachment goes with
// them — while the newest and every in-flight job stay addressable, a
// resubmit of a forgotten job is a cache hit, and the counters still
// balance.
func TestServerJobRetention(t *testing.T) {
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	var runs atomic.Int32
	s, err := New(Config{Workers: 1, Experiments: []experiments.Experiment{
		echoExperiment("echo"),
		gatedExperiment("gated", gate, running, &runs),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, err := s.Submit("echo", JobParams{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Await(first.ID, 5*time.Second, nil); v.State != StateDone {
		t.Fatalf("first job %s", v.State)
	}
	s.ckMu.Lock()
	s.ckByJob[first.ID] = &checkpointStream{}
	s.ckMu.Unlock()

	slow, err := s.Submit("gated", JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	var last JobView
	for i := 0; i < maxFinishedJobs; i++ {
		if last, err = s.Submit("echo", JobParams{N: 1}); err != nil || last.State != StateDone {
			t.Fatalf("hit %d: %v state %s", i, err, last.State)
		}
	}

	if _, ok := s.Job(first.ID); ok {
		t.Errorf("oldest finished job %s still addressable past %d newer", first.ID, maxFinishedJobs)
	}
	body, code := rawRequest(t, "GET", ts.URL+"/v1/jobs/"+first.ID, "", "")
	var env Envelope
	json.Unmarshal(body, &env)
	if code != http.StatusNotFound || env.Error == nil || env.Error.Code != CodeNotFound {
		t.Errorf("GET forgotten job: status %d error %+v, want 404 %s", code, env.Error, CodeNotFound)
	}
	if s.streamFor(first.ID) != nil {
		t.Error("forgotten job's checkpoint-stream entry survived")
	}
	if v, ok := s.Job(last.ID); !ok || v.State != StateDone {
		t.Errorf("newest job %s: ok=%v state %s", last.ID, ok, v.State)
	}
	if v, ok := s.Job(slow.ID); !ok || v.State != StateRunning {
		t.Errorf("in-flight job %s: ok=%v state %s, want running and addressable", slow.ID, ok, v.State)
	}
	if got := len(s.Jobs()); got != maxFinishedJobs+1 {
		t.Errorf("job listing holds %d jobs, want %d finished + 1 running", got, maxFinishedJobs)
	}
	snap := s.Metrics()
	sub, comp, fail := snap.Get(mJobsSubmitted), snap.Get(mJobsCompleted), snap.Get(mJobsFailed)
	if sub != comp+fail+1 {
		t.Errorf("submitted %d != completed %d + failed %d + 1 in flight", sub, comp, fail)
	}

	again, err := s.Submit("echo", JobParams{N: 1})
	if err != nil || !again.Cached {
		t.Errorf("resubmit of a forgotten job: %v cached=%v, want a cache hit", err, again.Cached)
	}
	close(gate)
	if v, _ := s.Await(slow.ID, 5*time.Second, nil); v.State != StateDone {
		t.Fatalf("gated job %s", v.State)
	}
	assertConservation(t, s)
}

// TestCacheWriteThrough pins the memory-tier rule of a disk-backed
// cache: Put writes through to disk and leaves memory empty, the first
// Get promotes the entry, and a Put whose disk write fails keeps the
// entry in memory so it is still served. A memory-only cache keeps
// every Put.
func TestCacheWriteThrough(t *testing.T) {
	c, err := NewCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", []byte(`"v1"`)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("after disk Put: %d entries in memory, want 0", c.Len())
	}
	if v, ok := c.Get("k1"); !ok || string(v) != `"v1"` {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("after first Get: %d entries in memory, want 1", c.Len())
	}

	inj := faults.New(1)
	inj.Arm(SiteCacheWrite, faults.Trigger{OnCall: 1})
	c.WithFaults(inj)
	if err := c.Put("k2", []byte(`"v2"`)); err == nil {
		t.Fatal("injected write failure not reported")
	}
	if c.Len() != 2 {
		t.Errorf("after failed disk Put: %d entries in memory, want 2", c.Len())
	}
	if v, ok := c.Get("k2"); !ok || string(v) != `"v2"` {
		t.Errorf("failed-write entry: Get = %q, %v, want served from memory", v, ok)
	}

	mem, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	mem.Put("k", []byte(`1`))
	if mem.Len() != 1 {
		t.Errorf("memory-only Put: %d entries, want 1", mem.Len())
	}
}
