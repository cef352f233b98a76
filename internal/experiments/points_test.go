package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// renderIndented marshals exactly as the serving layer renders results
// (indented, trailing newline), so byte comparisons here prove the same
// identity the fabric's merged responses rely on.
func renderIndented(t *testing.T, v interface{}) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// runDecomposedOverWire runs every point of a decomposed experiment with
// a JSON round-trip on both the spec and the result — the exact
// transformation the fabric's HTTP transport applies — then merges.
func runDecomposedOverWire(t *testing.T, ctx context.Context, name string, rc RunConfig) Renderable {
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
		r, err := RunPoint(ctx, spec)
		if err != nil {
			return err
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
	// Merge in shuffled order to prove MergePoints' index sort.
	for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
		results[i], results[j] = results[j], results[i]
	}
	merged, err := MergePoints(name, rc, results)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestDecomposedFig6MatchesDriver pins the fabric's core identity: the
// chunk-size sweep decomposed into wire-serialized points and merged
// back in shuffled order is byte-identical to the registry's single-node
// run.
func TestDecomposedFig6MatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx := context.Background()
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	want := renderIndented(t, runRegistered(t, "fig6", rc.Scale))
	merged := runDecomposedOverWire(t, ctx, "fig6", rc)
	if got := renderIndented(t, merged); !bytes.Equal(got, want) {
		t.Errorf("decomposed fig6 differs from the registry's run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestDecomposedFig2MatchesDriver is the fig2 twin, and additionally
// checks the point-progress reporting contract of a single-node run.
func TestDecomposedFig2MatchesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	rc := DefaultRunConfig()
	rc.Scale = 0.02

	// Pool workers report concurrently, so calls may land out of order:
	// keep the highest count seen.
	var mu sync.Mutex
	var maxDone, lastTotal int
	ctx := WithPointProgress(context.Background(), func(done, total int) {
		mu.Lock()
		maxDone = max(maxDone, done)
		lastTotal = total
		mu.Unlock()
	})

	e, _ := Lookup("fig2")
	local, err := e.Run(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := renderIndented(t, local)

	merged := runDecomposedOverWire(t, context.Background(), "fig2", rc)
	if got := renderIndented(t, merged); !bytes.Equal(got, want) {
		t.Errorf("decomposed fig2 differs from the registry's run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	mu.Lock()
	defer mu.Unlock()
	specs, _ := Decompose("fig2", rc)
	if lastTotal != len(specs) || maxDone != lastTotal {
		t.Errorf("point progress reached done=%d total=%d, want %d of %d", maxDone, lastTotal, len(specs), len(specs))
	}
}

// TestDecomposeDeterministic pins that point plans are stable: two calls
// produce identical specs, and every spec round-trips through JSON
// unchanged — a prerequisite for content-addressing points by their
// canonical spec hash on different nodes.
func TestDecomposeDeterministic(t *testing.T) {
	rc := DefaultRunConfig()
	for _, name := range DecomposableExperiments() {
		a, _ := Decompose(name, rc)
		b, _ := Decompose(name, rc)
		if len(a) == 0 {
			t.Errorf("%s: empty point plan", name)
			continue
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: point plan not deterministic", name)
		}
		for i, spec := range a {
			if spec.Index != i {
				t.Errorf("%s: spec %d has index %d", name, i, spec.Index)
			}
			if spec.Experiment != name {
				t.Errorf("%s: spec %d names experiment %q", name, i, spec.Experiment)
			}
		}
	}
	if len(DecomposableExperiments()) < 2 {
		t.Errorf("DecomposableExperiments = %v, want at least fig2 and fig6", DecomposableExperiments())
	}
}

// TestStrategyTokens pins the spec tokens (they feed point keys — a
// change would silently invalidate every cached point) and their parse
// inverse.
func TestStrategyTokens(t *testing.T) {
	want := map[Strategy]string{Sequential: "sequential", Prefetched: "prefetched", Restructured: "restructured"}
	for s, tok := range want {
		if got := s.Token(); got != tok {
			t.Errorf("%v.Token() = %q, want %q", s, got, tok)
		}
		parsed, err := ParseStrategy(tok)
		if err != nil || parsed != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", tok, parsed, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted a bogus token")
	}
}
