package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/wave5"
)

// warmTestScale shrinks the dataset so the differential finishes fast
// while every loop still has several chunks.
const warmTestScale = 0.02

func warmTestParams() wave5.Params {
	return wave5.DefaultParams().Scaled(warmTestScale)
}

// runWarmPointFresh measures a point the expensive way: a fresh machine
// runs the whole prefix (distribution + sequential warm-up calls) itself
// and then the point's steady-state call. This is the ground truth a
// point forked off a prefix snapshot must match bit for bit.
func runWarmPointFresh(t *testing.T, cfg machine.Config, p wave5.Params, warmupCalls int, pt WarmPoint) []cascade.Result {
	t.Helper()
	w, err := wave5.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runWarmPrefix(context.Background(), m, w, warmupCalls); err != nil {
		t.Fatal(err)
	}
	results, err := runCall(m, w, pt.Strat, pt.ChunkBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestWarmSweepBitIdentical is the fork-equals-fresh differential: every
// warm point run off one built prefix (BuildPrefix, then a fork per
// point) equals a fresh machine running the same prefix and point from
// scratch — cycles and full metrics snapshot.
func TestWarmSweepBitIdentical(t *testing.T) {
	cfg := machine.PentiumPro(3)
	p := warmTestParams()
	const warmup = 1
	st, err := BuildPrefix(context.Background(), PrefixSpec{
		Machine: cfg.Name, Procs: cfg.Procs, Scale: warmTestScale,
		WarmupCalls: warmup, Distribute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := PrefixKey(cfg, p, warmup); err != nil || st.Key != want {
		t.Errorf("prefix key = %q, want %q (%v)", st.Key, want, err)
	}
	for i, pt := range DefaultWarmPoints(16 * 1024) {
		r, err := warmsweepRunWarm(st, PointSpec{
			Experiment: "warmsweep", Index: i, Machine: cfg.Name, Procs: cfg.Procs,
			Strategy: pt.Strat.Token(), ChunkBytes: pt.ChunkBytes,
			Scale: warmTestScale, Warmup: warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		fresh := runWarmPointFresh(t, cfg, p, warmup, pt)
		if got, want := r.Cycles, TotalCycles(fresh); got != want {
			t.Errorf("point %+v: warm cycles %d != fresh %d", pt, got, want)
		}
		if !reflect.DeepEqual(r.Metrics, MergeMetrics(fresh)) {
			t.Errorf("point %+v: warm metrics differ from fresh", pt)
		}
	}
}

// TestPrefixKeyDiscriminates pins the content-address semantics: the key
// is stable for equal inputs and distinct when the machine, dataset, or
// warm-up count changes.
func TestPrefixKeyDiscriminates(t *testing.T) {
	cfg := machine.PentiumPro(4)
	p := warmTestParams()
	k1, err := PrefixKey(cfg, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PrefixKey(cfg, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("prefix key not stable")
	}
	for name, alt := range map[string]func() (string, error){
		"procs":  func() (string, error) { return PrefixKey(cfg.WithProcs(2), p, 2) },
		"scale":  func() (string, error) { return PrefixKey(cfg, wave5.DefaultParams().Scaled(0.04), 2) },
		"warmup": func() (string, error) { return PrefixKey(cfg, p, 3) },
	} {
		k, err := alt()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("prefix key ignores %s", name)
		}
	}
	// The Parallel knob changes simulation scheduling on the host only,
	// but it is part of the canonical config bytes when on (by design —
	// see SetParallel's rationale); just check it doesn't error.
	if _, err := PrefixKey(cfg.WithParallel(machine.ParallelOn), p, 2); err != nil {
		t.Fatal(err)
	}
}

// TestQuickstartCheckpoints exercises the server-facing checkpoint run:
// the checkpointed Result matches a plain quickstart Prefetched run, the
// stream is non-empty with increasing iteration marks, and resuming from
// any checkpoint reproduces the Result exactly.
func TestQuickstartCheckpoints(t *testing.T) {
	const n, chunk = 1 << 14, 16 * 1024
	qr, err := QuickstartCheckpoints(context.Background(), n, chunk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Checkpoints) == 0 {
		t.Fatal("no checkpoints captured")
	}
	last := -1
	for _, ck := range qr.Checkpoints {
		if ck.Iter <= last {
			t.Fatalf("checkpoint iters not increasing: %d after %d", ck.Iter, last)
		}
		last = ck.Iter
	}

	// Plain run, same construction: checkpointing must not perturb it.
	space, loop, err := quickstartLoop(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.PentiumPro(4))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := cascade.NewOptions(
		cascade.WithHelper(cascade.HelperPrefetch),
		cascade.WithSpace(space),
		cascade.WithChunkBytes(chunk),
	)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cascade.Run(m, loop, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qr.Result, plain) {
		t.Error("checkpointed quickstart run differs from plain run")
	}

	// Resume out of order, including a repeat, to prove rewind works.
	for _, k := range []int{len(qr.Checkpoints) - 1, 0, len(qr.Checkpoints) / 2, 0} {
		r, err := qr.Resume(k)
		if err != nil {
			t.Fatalf("resume %d: %v", k, err)
		}
		if !reflect.DeepEqual(r, qr.Result) {
			t.Errorf("resume from checkpoint %d differs from original result", k)
		}
	}
	if _, err := qr.Resume(len(qr.Checkpoints)); err == nil {
		t.Error("resume past the stream should error")
	}
}
