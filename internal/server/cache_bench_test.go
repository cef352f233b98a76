package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// Contention benchmarks for the fleet-load audit (DESIGN.md §12): many
// worker processes hammering one coordinator-side cache and one server's
// submit path concurrently. Run with -cpu to model producer counts, e.g.
//
//	go test -run NONE -bench BenchmarkCache -cpu 1,4,16 ./internal/server/
//
// The before/after numbers for the cache striping are recorded in
// DESIGN.md §12's contention note.

// benchCache builds a cache pre-populated with small entries under keys
// benchKey(0..n), disk-backed when dir != "".
func benchCache(b *testing.B, dir string, n int) *Cache {
	b.Helper()
	c, err := NewCache(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Put(benchKey(i), []byte(fmt.Sprintf(`{"point":%d}`, i))); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func benchKey(i int) string {
	return fmt.Sprintf("%02x-bench-key-%d", i%256, i)
}

// BenchmarkCacheGetParallel measures concurrent memory-hit lookups — the
// coordinator's per-point cache-index probe under fleet load.
func BenchmarkCacheGetParallel(b *testing.B) {
	const keys = 1024
	c := benchCache(b, "", keys)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get(benchKey(i % keys)); !ok {
				b.Fail()
			}
			i++
		}
	})
}

// BenchmarkCacheMixedDiskParallel measures a disk-backed cache under a
// mixed load: mostly hits with a stream of fresh writes, so the
// benchmark exposes whether unrelated keys serialize on one lock while
// a write is inside file I/O.
func BenchmarkCacheMixedDiskParallel(b *testing.B) {
	const keys = 1024
	c := benchCache(b, b.TempDir(), keys)
	var fresh atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 15 {
				k := fresh.Add(1)
				c.Put(benchKey(keys+int(k)), []byte(`{"fresh":true}`))
			} else {
				c.Get(benchKey(i % keys))
			}
			i++
		}
	})
}

// BenchmarkCacheGetUnderDiskWrites measures the striping's blast-radius
// property directly: reader throughput on memory-resident keys while a
// background writer continuously streams fresh entries through disk
// I/O. Under one global lock every read stalls behind the writer's
// milliseconds inside the filesystem; with per-shard locks only the
// 1-in-16 reads that share the writer's shard do.
func BenchmarkCacheGetUnderDiskWrites(b *testing.B) {
	const keys = 1024
	c := benchCache(b, b.TempDir(), keys)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var writes atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Put(benchKey(keys+i), []byte(`{"background":true}`))
				writes.Add(1)
			}
		}
	}()
	b.ReportAllocs()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(benchKey(i % keys))
			i++
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)
	<-writerDone
	// How much progress the writer made while readers hammered the cache:
	// under one global lock a continuous writer starves behind hot
	// readers (persistence stalls under read load); striped, it only
	// competes with the 1-in-16 readers on its shard.
	b.ReportMetric(float64(writes.Load())/elapsed.Seconds(), "writes/s")
}

// BenchmarkSubmitCacheHit measures the server queue mutex (s.mu, which
// also guards the single-flight map) on the hottest short path: a
// submission answered from the cache. Every call takes s.mu twice
// (submit bookkeeping + finish), so this bounds how fast one server can
// answer memoized fleet traffic.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s, err := New(Config{
		Workers:     1,
		Experiments: []experiments.Experiment{echoExperiment("echo")},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	v, err := s.Submit("echo", JobParams{N: 7})
	if err != nil {
		b.Fatal(err)
	}
	if r, _ := s.Await(v.ID, 5*time.Second, nil); r.State != StateDone {
		b.Fatalf("warm job state %s", r.State)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Submit("echo", JobParams{N: 7}); err != nil {
				b.Fail()
			}
		}
	})
}

// BenchmarkHTTPCacheHit measures a served hit end to end: POST /v1/jobs
// answered from the cache, then GET ?wait, through a real HTTP stack —
// the round trip the serve-hot benchmark workload repeats. table1 is a
// small result; fig6 at scale 0.01 is a ~200 KB one.
func BenchmarkHTTPCacheHit(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"table1", `{"experiment": "table1"}`},
		{"fig6", `{"experiment": "fig6", "params": {"scale": 0.01}}`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			id := benchRoundTrip(b, ts.URL, tc.body) // fills the cache
			if v, _ := s.Await(id, 0, nil); v.State != StateDone {
				b.Fatalf("fill job %s: %s", v.State, v.Error)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRoundTrip(b, ts.URL, tc.body)
			}
		})
	}
}

// benchRoundTrip submits body and long-polls the job, returning its ID.
func benchRoundTrip(b *testing.B, base, body string) string {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var env Envelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || env.Job == nil {
		b.Fatalf("submit: %v %+v", err, env.Error)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=10m", base, env.Job.ID))
	if err != nil {
		b.Fatal(err)
	}
	var done Envelope
	err = json.NewDecoder(resp.Body).Decode(&done)
	resp.Body.Close()
	if err != nil || done.Job == nil || done.Job.State != StateDone || len(done.Result) == 0 {
		b.Fatalf("wait: %v %+v", err, done.Error)
	}
	return env.Job.ID
}
