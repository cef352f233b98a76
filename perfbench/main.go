// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the serving daemon or the sweep
// fabric, checks the outputs, and prints every metric by name and unit.
//
//	perfbench --workload reproduce|fleet|serve-hot --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once traced, replays the sweep
// points layer by layer, and prints the per-layer metrics. The last line
// of standard output is the result object; the line before it is the
// full record (host, commit, seed, sample counts). See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each (see README.md for their meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"sim_accesses_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"cache.access_ns", "ns"},
	{"cache.replay_accesses", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cascade.run_s", "s"},
	{"cascade.ns_per_iter", "ns"},
	{"cascade.ns_per_access", "ns"},
	{"cascade.iters", "count"},
	{"cascade.accesses", "count"},
	{"cascade.chunks", "count"},
	{"coherence.bus_txns", "count"},
	{"interp.ns_per_iter_excl_cache", "ns"},
	{"wave5.build_ms", "ms"},
	{"wave5.build_calls", "count"},
	{"machine.new_us", "us"},
	{"machine.new_calls", "count"},
	{"machine.snapshot_us", "us"},
	{"machine.fork_us", "us"},
	{"experiments.prefix_build_ms", "ms"},
	{"experiments.point_ms_p50", "ms"},
	{"experiments.point_ms_max", "ms"},
	{"experiments.pool_busy_frac", "ratio"},
	{"experiments.merge_us", "us"},
	{"fabric.points.assigned", "count"},
	{"fabric.points.completed", "count"},
	{"fabric.points.retried", "count"},
	{"fabric.points.failed", "count"},
	{"fabric.batch_mean", "points"},
	{"fabric.worker_imbalance", "ratio"},
	{"fabric.first_point_ms", "ms"},
	{"journal.records", "count"},
	{"journal.append_us", "us"},
	{"canon.point_key_us", "us"},
	{"server.point_overhead_us", "us"},
	{"server.submit_us", "us"},
	{"server.wait_us", "us"},
	{"server.cache_get_us", "us"},
	{"server.cache_put_us", "us"},
	{"server.job_key_us", "us"},
	{"server.hit_bytes_mean", "bytes"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_tail_ms", "ms"},
	{"server.hit_tail_pct", "pct"},
	{"server.hit_samples", "count"},
	{"server.miss_p50_ms", "ms"},
	{"server.miss_tail_ms", "ms"},
	{"server.miss_tail_pct", "pct"},
	{"server.miss_samples", "count"},
	{"server.cache.hits", "count"},
	{"server.cache.misses", "count"},
	{"server.cache.disk_hits", "count"},
	{"server.jobs.coalesced", "count"},
	{"server.jobs.rejected", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(run *runCtx) error{
	"reproduce": runReproduce,
	"fleet":     runFleet,
	"serve-hot": runServeHot,
}

// runCtx is one benchmark run: its arguments, where it may write, and
// what it has measured so far.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // run artefacts (records, spans), inside the checkout

	tr        *tracer
	values    map[string]float64
	extra     map[string]interface{} // record-only details
	attempted int
	failed    int
	problems  []string // correctness-gate failures
}

// fail records a correctness-gate failure; the run then reports
// correct=false and exits non-zero.
func (r *runCtx) fail(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

func (r *runCtx) set(name string, v float64) { r.values[name] = v }

func main() {
	workload := flag.String("workload", "", "workload: reproduce, fleet or serve-hot")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	outDir := flag.String("out", ".bench_build/out", "directory for records and spans")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	run := &runCtx{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		outDir:   *outDir,
		values:   map[string]float64{},
		extra:    map[string]interface{}{},
	}
	if run.traced {
		run.tr = newTracer()
		for _, d := range perLayer {
			run.values[d.Name] = 0
		}
	}
	if err := fn(run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !run.traced {
		run.set("peak_rss_mb", peakRSSMB())
	}
	if err := report(os.Stdout, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(run.problems) > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the record line, saves it, and prints the result line.
func report(w io.Writer, run *runCtx) error {
	defs := endToEnd
	if run.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(run.problems) == 0,
		Attempted: run.attempted,
		Failed:    run.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := run.values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", run.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", run.workload)
	}
	rec := map[string]interface{}{
		"workload":  run.workload,
		"seed":      run.seed,
		"seconds":   run.seconds.Seconds(),
		"trace":     run.traced,
		"host":      hostBlock(),
		"commit":    commit(),
		"source":    sourceDigest(),
		"fail_frac": failFrac(run.attempted, run.failed),
		"problems":  run.problems,
		"details":   run.extra,
		"result":    res,
		"finished":  time.Now().UTC().Format(time.RFC3339),
	}
	line, err := json.Marshal(map[string]interface{}{"record": rec})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(run.outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if run.traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", run.workload, run.seed, trace)
	if err := os.WriteFile(filepath.Join(run.outDir, name), append(line, '\n'), 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}

// hostBlock describes the machine the run measured.
func hostBlock() map[string]interface{} {
	return map[string]interface{}{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"kernel":     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one ("unknown" in a plain source checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the checkout root), identifying the code measured even when
// no VCS revision is available.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS restarts the process's peak-RSS count (Linux clear_refs
// value 5), so peak_rss_mb covers the measured units, not set-up.
func resetPeakRSS(run *runCtx) {
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	run.extra["peak_rss_covers_setup"] = err != nil
}

// peakRSSMB is this process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
