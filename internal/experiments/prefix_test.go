package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// warmOverWire runs every point of a decomposed experiment through the
// warm path — PrefixCache fetch, fork, RunWarm — with the fabric's JSON
// round-trip on both spec and result, then merges. The byte comparison
// against the cold path is the warm fleet's core guarantee: snapshot
// reuse is a wall-clock optimization, never an observable one.
func warmOverWire(t *testing.T, ctx context.Context, c *PrefixCache, name string, rc RunConfig) Renderable {
	t.Helper()
	specs, ok := Decompose(name, rc)
	if !ok {
		t.Fatalf("experiment %q not decomposable", name)
	}
	results := make([]PointResult, len(specs))
	if err := parallelFor(ctx, len(specs), func(i int) error {
		sb, err := json.Marshal(specs[i])
		if err != nil {
			return err
		}
		var spec PointSpec
		if err := json.Unmarshal(sb, &spec); err != nil {
			return err
		}
		r, warm, err := c.RunPoint(ctx, spec)
		if err != nil {
			return err
		}
		if !warm {
			t.Errorf("%s point %d took the cold path", name, i)
			r, err = RunPoint(ctx, spec)
			if err != nil {
				return err
			}
		}
		rb, err := json.Marshal(r)
		if err != nil {
			return err
		}
		var wire PointResult
		if err := json.Unmarshal(rb, &wire); err != nil {
			return err
		}
		results[i] = wire
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := MergePoints(name, rc, results)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestWarmsweepDecomposedMatchesDriver pins warm/cold identity for the
// most prefix-heavy sweep in the registry: the cold decomposed path
// (each point builds a private prefix, as a single-node run does) and
// the warm path (every point forked off one cached snapshot per machine)
// must render byte-identical results.
func TestWarmsweepDecomposedMatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	cold, ok, err := RunDecomposed(ctx, "warmsweep", rc)
	if !ok || err != nil {
		t.Fatalf("RunDecomposed = ok=%v err=%v", ok, err)
	}
	want := renderIndented(t, cold)

	c := NewPrefixCache(0)
	warm := warmOverWire(t, ctx, c, "warmsweep", rc)
	if got := renderIndented(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm decomposed warmsweep differs from cold:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// One prefix per machine, every other point a snapshot hit.
	specs, _ := Decompose("warmsweep", rc)
	stats := c.Stats()
	if want := len(Machines()); stats.Misses != int64(want) || stats.Entries != want {
		t.Errorf("cache builds = %d misses / %d entries, want %d of each", stats.Misses, stats.Entries, want)
	}
	if want := int64(len(specs) - len(Machines())); stats.Hits != want {
		t.Errorf("cache hits = %d, want %d", stats.Hits, want)
	}
	if stats.Bytes <= 0 || stats.Bytes > stats.MaxBytes {
		t.Errorf("cache accounting out of range: %d bytes of %d", stats.Bytes, stats.MaxBytes)
	}
}

// TestWarmPointMatchesColdParmvr pins per-point warm/cold identity for
// the fig2 and fig6 decompositions: a point run off a cached prefix
// snapshot serializes to exactly the bytes the cold path produces.
func TestWarmPointMatchesColdParmvr(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	c := NewPrefixCache(0)
	for _, name := range []string{"fig2", "fig6"} {
		specs, ok := Decompose(name, rc)
		if !ok {
			t.Fatalf("experiment %q not decomposable", name)
		}
		// The sequential baseline plus the first two sweep points: every
		// strategy class crosses the fork boundary.
		for _, i := range []int{0, len(Machines()), len(Machines()) + 1} {
			cold, err := RunPoint(ctx, specs[i])
			if err != nil {
				t.Fatal(err)
			}
			warm, ok, err := c.RunPoint(ctx, specs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s point %d has no warm path", name, i)
			}
			if got, want := renderIndented(t, warm), renderIndented(t, cold); !bytes.Equal(got, want) {
				t.Errorf("%s point %d warm result differs from cold:\n got %s\nwant %s", name, i, got, want)
			}
		}
	}
	if stats := c.Stats(); stats.Hits == 0 {
		t.Error("no snapshot reuse across points sharing a prefix")
	}
}

// TestPrefixCacheSingleFlight pins that concurrent points sharing one
// prefix build it exactly once, and that a state evicted while points
// still hold it stays usable (sealed snapshot arrays are immutable).
func TestPrefixCacheSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	specs, _ := Decompose("fig6", rc)
	spec := specs[len(Machines())] // first sweep point

	c := NewPrefixCache(0)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, ok, err := c.RunPoint(ctx, spec)
			if err == nil && !ok {
				errs[g] = context.Canceled // sentinel: unexpected cold path
				return
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if stats := c.Stats(); stats.Misses != 1 || stats.Hits != 3 {
		t.Errorf("single-flight broken: %d misses, %d hits, want 1 and 3", stats.Misses, stats.Hits)
	}
}

// TestPrefixCacheEviction pins the byte ceiling: a cache far too small
// for two prefixes keeps only the most recent one, counts the eviction,
// and still returns correct results for every request.
func TestPrefixCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	specs, _ := Decompose("fig6", rc)
	if len(Machines()) < 2 {
		t.Skip("needs two machine presets")
	}
	// The two machines' sequential baselines: distinct prefixes.
	a, b := specs[0], specs[1]

	c := NewPrefixCache(1) // 1 byte: nothing fits, LRU always at ceiling
	coldA, err := RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	warmA, _, err := c.RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunPoint(ctx, b); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Entries != 1 || stats.Evictions == 0 {
		t.Errorf("eviction did not hold the ceiling: %d entries, %d evictions", stats.Entries, stats.Evictions)
	}
	// A's state was evicted; re-requesting rebuilds it and the result is
	// still byte-identical to the cold path.
	warmA2, _, err := c.RunPoint(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	wantA := renderIndented(t, coldA)
	if got := renderIndented(t, warmA); !bytes.Equal(got, wantA) {
		t.Error("pre-eviction warm result differs from cold")
	}
	if got := renderIndented(t, warmA2); !bytes.Equal(got, wantA) {
		t.Error("post-eviction rebuilt result differs from cold")
	}
	if s := c.Stats(); s.Misses != 3 {
		t.Errorf("rebuild accounting: %d misses, want 3", s.Misses)
	}
}

// TestPrefixBuildCancelDoesNotLeak pins that a prefix build aborted by
// its builder's context fails only the builder: a point waiting on the
// same key with a live context builds the prefix itself instead of
// returning the builder's error. The build hook holds the first build
// until the second caller has joined it, then cancels the builder.
func TestPrefixBuildCancelDoesNotLeak(t *testing.T) {
	spec := PrefixSpec{Machine: Machines()[0].Name, Procs: 2, Scale: 0.02, WarmupCalls: 1, Distribute: true}
	c := NewPrefixCache(0)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	building := make(chan struct{})
	builds := 0
	c.buildHook = func() {
		builds++
		if builds > 1 {
			return
		}
		close(building)
		for c.Stats().Hits == 0 { // B has looked up A's entry
			time.Sleep(time.Millisecond)
		}
		cancelA()
	}

	errA := make(chan error, 1)
	go func() {
		_, err := c.state(ctxA, spec)
		errA <- err
	}()
	<-building
	st, err := c.state(context.Background(), spec)
	if err != nil {
		t.Fatalf("waiter with a live context got %v", err)
	}
	if st == nil {
		t.Fatal("waiter got no prefix state")
	}
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("builder got %v, want its own context.Canceled", err)
	}
	if s := c.Stats(); builds != 2 || s.Misses != 2 || s.Entries != 1 {
		t.Errorf("builds = %d, misses = %d, entries = %d; want 2, 2, 1", builds, s.Misses, s.Entries)
	}
}
