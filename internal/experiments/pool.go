package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pointProgressKey carries a sweep-progress reporter in a context (see
// WithPointProgress).
type pointProgressKey struct{}

// WithPointProgress returns a context carrying fn. Every sweep that runs
// through parallelFor calls fn as points complete, with the number of
// completed points and the sweep's total — no driver changes required.
// A decomposed sweep (RunDecomposed: fig2, fig6, warmsweep) is one phase
// over all its points; an experiment with several sweep phases (fig7's
// baselines, then its points) reports each phase's counts in turn. The serving layer installs a
// reporter here to expose points_done/points_total keep-alive progress
// on long-polled jobs. fn must be safe for concurrent calls.
func WithPointProgress(ctx context.Context, fn func(done, total int)) context.Context {
	return context.WithValue(ctx, pointProgressKey{}, fn)
}

// ReportPointProgress invokes ctx's progress reporter, if any. Exported
// so experiments defined outside this package (test stand-ins, custom
// workloads) can feed the same progress channel the built-in sweeps do.
func ReportPointProgress(ctx context.Context, done, total int) {
	if fn, ok := ctx.Value(pointProgressKey{}).(func(done, total int)); ok && fn != nil {
		fn(done, total)
	}
}

// DefaultJobWorkers is the bounded concurrency at which the serving
// layer (internal/server) executes experiment jobs: half the scheduler's
// processors, at least one. Each job's sweep already fans out across
// GOMAXPROCS via parallelFor below, so running every queued job at full
// width would oversubscribe the machine; halving keeps one job's sweep
// and the next job's warm-up overlapped without thrashing.
func DefaultJobWorkers() int {
	w := runtime.GOMAXPROCS(0) / 2
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(i) for every i in [0, n) across up to
// runtime.GOMAXPROCS(0) workers. Every index's work must be independent —
// experiment sweeps are: each point builds its own workload and machine —
// and results must be written to distinct, pre-allocated slots so the
// output order is deterministic regardless of scheduling.
//
// On failure the sweep stops promptly: no new index is dispatched once an
// error is recorded, and already-queued indices above the failing one are
// skipped. Indices below a recorded failure still run, so the returned
// error is always the one with the lowest failing index — deterministic,
// not dependent on completion order.
//
// Cancelling ctx also stops the sweep promptly: no new index is
// dispatched, in-flight points finish (a point's work is not
// interruptible), and ctx.Err() is returned unless an fn error was
// recorded first. fn errors take precedence so that a failure racing a
// Ctrl-C is still reported.
//
// A panic in fn is contained: it becomes that point's error (stack
// included) instead of unwinding a pool goroutine and killing the
// process. This is what lets a long-running caller — the serving
// daemon — survive a buggy experiment: panics on the job's own
// goroutine are recovered there, and panics on sweep workers are
// recovered here.
//
// Each in-flight point holds its own simulated machine and dataset, so
// peak memory scales with the worker count; sweeps at full PARMVR scale
// hold tens of megabytes per worker.
func parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var completed atomic.Int64
	finish := func() {
		ReportPointProgress(ctx, int(completed.Add(1)), n)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runPoint(i, fn); err != nil {
				return err
			}
			finish()
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		mu       sync.Mutex
		firstIdx = n // sentinel: no error recorded yet
		firstErr error
	)
	record := func(i int, e error) {
		if e == nil {
			return
		}
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, e
		}
		mu.Unlock()
	}
	// skip reports whether index i is moot: an error at a lower index is
	// already recorded. Indices below the recorded failure still run (one
	// of them may fail too, and the lowest failing index must win).
	skip := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return i > firstIdx
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstIdx < n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if skip(i) {
					continue
				}
				record(i, runPoint(i, fn))
				finish()
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		if failed() || ctx.Err() != nil {
			break // cancel: don't dispatch points that will be thrown away
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runPoint runs one sweep point, converting a panic into the point's
// error so it is reported through the normal first-failing-index path
// rather than crashing the process.
func runPoint(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep point %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
