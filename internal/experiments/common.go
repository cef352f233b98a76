// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3). Each driver runs the relevant workloads on the
// simulated machines and produces the same rows or series the paper
// reports; renderers emit aligned text or CSV. The cmd/cascade-sim CLI
// and the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/wave5"
)

// Strategy identifies an execution strategy of the evaluation.
type Strategy int

const (
	// Sequential is the original single-processor execution (Figure 1a).
	Sequential Strategy = iota
	// Prefetched is cascaded execution with the prefetch helper.
	Prefetched
	// Restructured is cascaded execution with the data-restructuring
	// helper (sequential buffer).
	Restructured
)

// Strategies lists the three strategies in presentation order.
var Strategies = []Strategy{Sequential, Prefetched, Restructured}

// String implements fmt.Stringer, matching the paper's legend labels.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "Original Sequential"
	case Prefetched:
		return "Prefetched"
	case Restructured:
		return "Restructured"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MarshalJSON renders the strategy as its legend label, so exported
// experiment results are self-describing.
func (s Strategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// helper converts a cascaded Strategy to cascade.Helper.
func (s Strategy) helper() cascade.Helper {
	if s == Restructured {
		return cascade.HelperRestructure
	}
	return cascade.HelperPrefetch
}

// RunPARMVR executes the fifteen PARMVR loops in order on a fresh machine
// and freshly built workload, under the given strategy, returning one
// result per loop. Chunked strategies use chunkBytes chunks with the
// paper's jump-out refinement; the prior parallel section is modelled for
// every strategy.
func RunPARMVR(cfg machine.Config, p wave5.Params, strat Strategy, chunkBytes int) ([]cascade.Result, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return runCall(m, w, strat, chunkBytes, false)
}

// RunPARMVRCall measures one call of PARMVR after warmupCalls prior calls
// on the same machine with warm caches. The paper's per-loop figures are
// for "the 12th call (out of 5000)" — a steady-state call whose caches
// carry the previous call's residue; warmupCalls = 0 reproduces
// RunPARMVR's cold-call behaviour except that no cache reset happens
// between loops.
//
// Unlike RunPARMVR, caches are NOT reset between loops or calls: the
// measurement captures the real call-to-call reuse (grid arrays stay
// L2-resident across calls; particle arrays never fit).
func RunPARMVRCall(cfg machine.Config, p wave5.Params, strat Strategy, chunkBytes, warmupCalls int) ([]cascade.Result, error) {
	w, err := wave5.Build(p)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	distribute(m, w)
	for c := 0; c < warmupCalls; c++ {
		if _, err := runCall(m, w, strat, chunkBytes, true); err != nil {
			return nil, err
		}
	}
	return runCall(m, w, strat, chunkBytes, true)
}

// runCall runs one full PARMVR call on m: the fifteen loops in order
// under strat. A cold call (warm = false) resets the caches before every
// loop and models the prior parallel section; a warm call carries the
// machine's cache state into and between the loops, so it measures a
// steady-state call against whatever earlier calls left behind.
func runCall(m *machine.Machine, w *wave5.PARMVR, strat Strategy, chunkBytes int, warm bool) ([]cascade.Result, error) {
	results := make([]cascade.Result, 0, len(w.Loops))
	for _, l := range w.Loops {
		if strat == Sequential {
			if warm {
				results = append(results, cascade.RunSequentialWarm(m, l))
			} else {
				results = append(results, cascade.RunSequential(m, l, true))
			}
			continue
		}
		opts, err := cascade.NewOptions(
			cascade.WithHelper(strat.helper()),
			cascade.WithSpace(w.Space),
			cascade.WithChunkBytes(chunkBytes),
			cascade.WithKeepState(warm),
		)
		if err != nil {
			return nil, err
		}
		r, err := cascade.Run(m, l, opts)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// distribute models the parallel phases around a PARMVR call: every
// loop's data is spread dirty across the processors' caches.
func distribute(m *machine.Machine, w *wave5.PARMVR) {
	var ranges []machine.AddrRange
	for _, l := range w.Loops {
		for _, ar := range l.AddrRanges() {
			ranges = append(ranges, machine.AddrRange{Base: ar.Base, Bytes: ar.Bytes})
		}
	}
	m.DistributeLines(ranges)
}

// MergeMetrics folds the per-loop metric snapshots of a multi-loop run
// into one snapshot for the whole point: counters and phase cycles sum,
// so the result reads as if the registry had covered all loops as one
// measured region.
func MergeMetrics(results []cascade.Result) metrics.Snapshot {
	snaps := make([]metrics.Snapshot, len(results))
	for i, r := range results {
		snaps[i] = r.Metrics
	}
	return metrics.Merge(snaps...)
}

// TotalCycles sums the per-loop cycle counts.
func TotalCycles(results []cascade.Result) int64 {
	var total int64
	for _, r := range results {
		total += r.Cycles
	}
	return total
}

// hostParallel is the machine-level Parallel knob Machines applies to
// every configuration it hands out. The CLI sets it once, before any
// experiment runs, so no synchronization is needed.
var hostParallel machine.Parallel

// SetParallel selects the host-parallel simulation engine for every
// machine the experiments build. The knob is semantically transparent —
// parallel runs are bit-identical to serial ones — but it stays in the
// canonical cache key when on, so parallel sweeps never share disk-cache
// entries with serial golden runs. Call before running experiments.
func SetParallel(on bool) {
	if on {
		hostParallel = machine.ParallelOn
	} else {
		hostParallel = machine.ParallelOff
	}
}

// Machines returns the evaluation's two machines at their full processor
// counts (Table 1).
func Machines() []machine.Config {
	cfgs := machine.Presets()
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithParallel(hostParallel)
	}
	return cfgs
}

// procSweep returns the processor counts the paper's Figure 2 plots for a
// machine: 2..4 on the Pentium Pro, 2..8 on the R10000.
func procSweep(cfg machine.Config) []int {
	var out []int
	for p := 2; p <= cfg.Procs; p++ {
		out = append(out, p)
	}
	return out
}
