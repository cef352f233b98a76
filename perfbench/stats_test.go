package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{n: 19, ok: false},                  // median has 9 beyond
		{n: 20, pct: 50, val: 10, ok: true}, // rank 10, 10 beyond
		{n: 99, pct: 50, val: 50, ok: true}, // p90: rank 90, 9 beyond
		{n: 100, pct: 90, val: 90, ok: true},
		{n: 999, pct: 90, val: 900, ok: true}, // p99: rank 990, 9 beyond
		{n: 1000, pct: 99, val: 990, ok: true},
		{n: 10000, pct: 99.9, val: 9990, ok: true},
	} {
		pct, val, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || val != tc.val {
			t.Errorf("tail(n=%d) = p%g %g %v, want p%g %g %v", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

func TestFailFracCountsRefusedAndTimedOut(t *testing.T) {
	outcomes := []struct {
		status int
		err    error
	}{
		{http.StatusOK, nil},
		{http.StatusAccepted, nil},
		{http.StatusServiceUnavailable, nil}, // refused
		{http.StatusTooManyRequests, nil},    // refused
		{0, errors.New("context deadline exceeded")},
		{http.StatusOK, nil},
		{http.StatusInternalServerError, nil},
		{http.StatusOK, nil},
	}
	failed := 0
	for _, o := range outcomes {
		if requestFailed(o.status, o.err) {
			failed++
		}
	}
	if got := failFrac(len(outcomes), failed); got != 0.5 {
		t.Errorf("fail_frac = %g, want 0.5 (4 of 8 failed)", got)
	}
	if failFrac(0, 0) != 0 {
		t.Error("fail_frac of nothing attempted must be 0")
	}
}

func TestNamesAreValid(t *testing.T) {
	for _, bad := range []string{"", "-x", "a b", "a/b", "x\n"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !validName(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for name := range workloads {
		check(name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// and workloads the program emits in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range want {
		if i < len(names) && names[i] != want[i] {
			t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 30 * ms, End: 50 * ms},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	totals := summarize(spans)
	if got := selfTime(totals, "root"); got != 50*ms {
		t.Errorf("root self = %v, want 50ms (100 - [10,50) - [90,100))", got)
	}
	if got := selfTime(totals, "a"); got != 50*ms {
		t.Errorf("a self = %v, want 50ms", got)
	}
}

// selfTime is the summed self time of every span called name.
func selfTime(totals []layerTotals, name string) time.Duration {
	for _, lt := range totals {
		if lt.Name == name {
			return lt.Self
		}
	}
	return 0
}
