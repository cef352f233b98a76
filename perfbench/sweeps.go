package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// The paper sweeps reproduce and fleet run, in registry order, at a
// reduced scale: fig2 (22 points), fig6 (42) and warmsweep (10). At
// this scale a fig6 point costs ~50–100 ms here, above the dataset
// floor where points stop shrinking (scale ~0.01).
var sweepNames = []string{"fig2", "fig6", "warmsweep"}

const sweepScale = 0.02

// golden is the SHA-256 of each sweep's compacted JSON result at
// sweepScale, recorded from the program at the commit this benchmark was
// written against (cascade-sim -exp <name> -json -scale 0.02, passed
// through json.Compact).
var golden = map[string]string{
	"fig2":      "80b548a0518780a36f3dd71a725e4c624d2cdd7f12e7a22994d02d3e781a9e78",
	"fig6":      "ffa843c362af92ae3685689c82b4bc281f9d8fff5736ed8b24e6d60b54fa9565",
	"warmsweep": "00822bd5c03549d243064cbd7775b18993ee1c0264316225ffa6d4f0eddb219d",
}

// settle collects garbage and returns freed memory to the OS between
// measured units, so each unit starts from the same heap and peak RSS
// reflects one unit rather than how many fit in the run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func sweepConfig(scale float64) experiments.RunConfig {
	rc := experiments.DefaultRunConfig()
	rc.Scale = scale
	return rc
}

// canonical is a rendered result with insignificant whitespace removed,
// the form both the single-node renderer and the fleet's ndjson frames
// reduce to.
func canonical(rendered []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, rendered); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkGolden fails the run when a sweep's canonical bytes do not hash
// to the recorded value.
func checkGolden(run *runCtx, where, name string, canon []byte) {
	if got := digest(canon); got != golden[name] {
		run.fail("%s: %s result hashes to %s, golden is %s", where, name, got, golden[name])
	}
}

var l1Accesses = regexp.MustCompile(`"p[0-9]+\.l1\.accesses":\s*([0-9]+)`)

// simAccesses sums the p*.l1.accesses counters of every metric snapshot
// in a rendered result.
func simAccesses(canon []byte) int64 {
	var total int64
	for _, m := range l1Accesses.FindAllSubmatch(canon, -1) {
		var v int64
		fmt.Sscan(string(m[1]), &v)
		total += v
	}
	return total
}

// pointCount is the number of simulation points in a sweep at scale.
func pointCount(name string, scale float64) int {
	specs, _ := experiments.Decompose(name, sweepConfig(scale))
	return len(specs)
}

// decomposedSweep is one sweep run point by point in-process.
type decomposedSweep struct {
	name    string
	specs   []experiments.PointSpec
	results []experiments.PointResult
	pointMS []float64
	merge   time.Duration
	canon   []byte
}

// decomposedPass runs each sweep the way the fabric's single-node twin
// does — Decompose, RunPoint on a pool of GOMAXPROCS goroutines,
// MergePoints — with a span around every call into the experiments
// layer.
func decomposedPass(ctx context.Context, tr *tracer, names []string, scale float64) ([]decomposedSweep, time.Duration, error) {
	start := time.Now()
	rc := sweepConfig(scale)
	var out []decomposedSweep
	for _, name := range names {
		sw := tr.begin(name, "experiments.sweep", nil)
		specs, ok := experiments.Decompose(name, rc)
		if !ok {
			return nil, 0, fmt.Errorf("%s has no point decomposition", name)
		}
		ds := decomposedSweep{
			name: name, specs: specs,
			results: make([]experiments.PointResult, len(specs)),
			pointMS: make([]float64, len(specs)),
		}
		if err := pool(len(specs), func(i int) error {
			sp := tr.begin(fmt.Sprintf("%s/%d", name, i), "experiments.RunPoint", sw)
			t := time.Now()
			r, err := experiments.RunPoint(ctx, specs[i])
			ds.pointMS[i] = ms(time.Since(t))
			sp.end()
			ds.results[i] = r
			return err
		}); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		mg := tr.begin(name, "experiments.MergePoints", sw)
		t := time.Now()
		merged, err := experiments.MergePoints(name, rc, ds.results)
		ds.merge = time.Since(t)
		mg.end()
		if err != nil {
			return nil, 0, err
		}
		sw.end()
		rendered, err := server.RenderJSON(merged)
		if err != nil {
			return nil, 0, err
		}
		if ds.canon, err = canonical(rendered); err != nil {
			return nil, 0, err
		}
		out = append(out, ds)
	}
	return out, time.Since(start), nil
}

// recordPass sets the experiments-layer metrics from a decomposed pass.
func recordPass(run *runCtx, pass []decomposedSweep, wall time.Duration) {
	var pts []float64
	var merges []float64
	for _, ds := range pass {
		pts = append(pts, ds.pointMS...)
		merges = append(merges, us(ds.merge))
	}
	run.set("experiments.point_ms_p50", median(pts))
	run.set("experiments.point_ms_max", maxOf(pts))
	run.set("experiments.pool_busy_frac", sum(pts)/1e3/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	run.set("experiments.merge_us", median(merges))
	run.extra["decomposed_points"] = len(pts)
}

// pool runs fn(i) for i in [0, n) on GOMAXPROCS goroutines, like the
// experiment pool, and returns the first error.
func pool(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
