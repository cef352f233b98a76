package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cascade"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/wave5"
)

// replayTotals accumulates what the layer replay of many points saw.
type replayTotals struct {
	mu                  sync.Mutex
	builds, news        []float64 // ms per wave5.Build, us per machine.New
	snaps, forks        []float64 // us per Snapshot / Fork
	iters, accesses     int64
	chunks, busTxns     int64
	l1Hits, l1Accesses  int64
	l2Hits, l2Accesses  int64
	runTime             time.Duration
	mismatches, checked int
}

// simulatorLayers replays every fig2 and fig6 point of a decomposed pass
// through wave5.Build → machine.New → cascade.Run (RunSequential for
// the baselines), exactly as RunPARMVR does, timing each layer call. It
// cross-checks each replay's cycles against the point's RunPoint result,
// replays one sequential point's access stream onto a fresh cache
// hierarchy, and times the warm prefixes' builds.
func simulatorLayers(ctx context.Context, run *runCtx, pass []decomposedSweep) error {
	var tot replayTotals
	var warm []experiments.PointSpec
	for _, ds := range pass {
		if ds.name == "warmsweep" {
			warm = ds.specs
			continue
		}
		if err := pool(len(ds.specs), func(i int) error {
			return replayPoint(run, &tot, ds.specs[i], ds.results[i].Cycles)
		}); err != nil {
			return err
		}
	}
	if tot.checked == 0 {
		return fmt.Errorf("no fig2/fig6 points to replay")
	}
	run.extra["replay_points_checked"] = tot.checked
	if tot.mismatches > 0 {
		run.fail("layer replay: %d of %d points disagree with RunPoint cycles", tot.mismatches, tot.checked)
	}

	accessNS, n, err := cacheReplay(pass)
	if err != nil {
		return err
	}
	runS := tot.runTime.Seconds()
	run.set("cache.access_ns", accessNS)
	run.set("cache.replay_accesses", float64(n))
	run.set("cache.l1_hit_ratio", float64(tot.l1Hits)/float64(tot.l1Accesses))
	run.set("cache.l2_hit_ratio", float64(tot.l2Hits)/float64(tot.l2Accesses))
	run.set("cascade.run_s", runS)
	run.set("cascade.iters", float64(tot.iters))
	run.set("cascade.accesses", float64(tot.l1Accesses))
	run.set("cascade.ns_per_iter", runS*1e9/float64(tot.iters))
	run.set("cascade.ns_per_access", runS*1e9/float64(tot.l1Accesses))
	run.set("cascade.chunks", float64(tot.chunks))
	run.set("coherence.bus_txns", float64(tot.busTxns))
	run.set("interp.ns_per_iter_excl_cache", (runS*1e9-float64(tot.l1Accesses)*accessNS)/float64(tot.iters))
	run.set("wave5.build_ms", median(tot.builds))
	run.set("wave5.build_calls", float64(len(tot.builds)))
	run.set("machine.new_us", median(tot.news))
	run.set("machine.new_calls", float64(len(tot.news)))
	run.set("machine.snapshot_us", median(tot.snaps))
	run.set("machine.fork_us", median(tot.forks))

	if len(warm) > 0 {
		builds, err := prefixBuilds(ctx, run, warm)
		if err != nil {
			return err
		}
		run.set("experiments.prefix_build_ms", median(builds))
	}
	return nil
}

// machineFor resolves a spec's machine preset and processor count.
func machineFor(ps experiments.PointSpec) (machine.Config, error) {
	for _, cfg := range experiments.Machines() {
		if cfg.Name == ps.Machine {
			return cfg.WithProcs(ps.Procs), nil
		}
	}
	return machine.Config{}, fmt.Errorf("unknown machine preset %q", ps.Machine)
}

// replayPoint rebuilds one PARMVR point layer by layer.
func replayPoint(run *runCtx, tot *replayTotals, ps experiments.PointSpec, want int64) error {
	cfg, err := machineFor(ps)
	if err != nil {
		return err
	}
	trace := fmt.Sprintf("%s/%d", ps.Experiment, ps.Index)
	root := run.tr.begin(trace, "replay.point", nil)
	defer root.end()

	sp := run.tr.begin(trace, "wave5.Build", root)
	w, err := wave5.Build(wave5.DefaultParams().Scaled(ps.Scale))
	build := sp.end()
	if err != nil {
		return err
	}
	sp = run.tr.begin(trace, "machine.New", root)
	m, err := machine.New(cfg)
	mnew := sp.end()
	if err != nil {
		return err
	}
	helper := cascade.HelperPrefetch
	if ps.Strategy == experiments.Restructured.Token() {
		helper = cascade.HelperRestructure
	}
	var cycles, iters, chunks, bus int64
	var l1, l2 cache.Stats
	var runTime time.Duration
	for _, l := range w.Loops {
		var r cascade.Result
		if ps.Strategy == experiments.Sequential.Token() {
			sp = run.tr.begin(trace, "cascade.RunSequential", root)
			r = cascade.RunSequential(m, l, true)
		} else {
			opts, err := cascade.NewOptions(cascade.WithHelper(helper), cascade.WithSpace(w.Space),
				cascade.WithChunkBytes(ps.ChunkKB*1024))
			if err != nil {
				return err
			}
			sp = run.tr.begin(trace, "cascade.Run", root)
			r, err = cascade.Run(m, l, opts)
			if err != nil {
				sp.end()
				return err
			}
		}
		runTime += sp.end()
		cycles += r.Cycles
		iters += int64(l.Iters)
		chunks += int64(r.Chunks)
		bus += r.Bus.MemFetches + r.Bus.CacheToCache + r.Bus.Upgrades + r.Bus.Writebacks
		l1.Add(r.L1)
		l2.Add(r.L2)
	}
	sp = run.tr.begin(trace, "machine.Snapshot", root)
	snap, err := m.Snapshot()
	snapT := sp.end()
	if err != nil {
		return err
	}
	sp = run.tr.begin(trace, "machine.Fork", root)
	_, err = snap.Fork()
	forkT := sp.end()
	if err != nil {
		return err
	}

	tot.mu.Lock()
	defer tot.mu.Unlock()
	tot.builds = append(tot.builds, ms(build))
	tot.news = append(tot.news, us(mnew))
	tot.snaps = append(tot.snaps, us(snapT))
	tot.forks = append(tot.forks, us(forkT))
	tot.runTime += runTime
	tot.iters += iters
	tot.chunks += chunks
	tot.busTxns += bus
	tot.l1Hits += l1.Hits
	tot.l1Accesses += l1.Accesses
	tot.l2Hits += l2.Hits
	tot.l2Accesses += l2.Accesses
	tot.checked++
	if cycles != want {
		tot.mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: replay of %s gives %d cycles, RunPoint gave %d\n", trace, cycles, want)
	}
	return nil
}

// maxReplayAccesses caps the recorded access stream (16 bytes an entry).
const maxReplayAccesses = 1 << 22

type access struct {
	addr  memsim.Addr
	size  int32
	write bool
}

// cacheReplay records the demand access stream of fig2's first
// sequential point, then times cache.Hierarchy.Access over it on fresh
// hierarchies configured like the machine's. It returns the median
// ns per access over three replays and the stream length.
func cacheReplay(pass []decomposedSweep) (float64, int, error) {
	var ps experiments.PointSpec
	found := false
	for _, ds := range pass {
		for _, s := range ds.specs {
			if !found && s.Experiment == "fig2" && s.Strategy == experiments.Sequential.Token() {
				ps, found = s, true
			}
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("no sequential point to replay")
	}
	cfg, err := machineFor(ps)
	if err != nil {
		return 0, 0, err
	}
	w, err := wave5.Build(wave5.DefaultParams().Scaled(ps.Scale))
	if err != nil {
		return 0, 0, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	stream := make([]access, 0, 1<<20)
	m.Proc(0).SetObserver(func(addr memsim.Addr, size int, write bool) {
		if len(stream) < maxReplayAccesses {
			stream = append(stream, access{addr, int32(size), write})
		}
	})
	for _, l := range w.Loops {
		if len(stream) >= maxReplayAccesses {
			break
		}
		cascade.RunSequential(m, l, true)
	}
	m.Proc(0).SetObserver(nil)

	var per []float64
	for rep := 0; rep < 3; rep++ {
		h := cache.NewHierarchy(cfg.L1, cfg.L2, &cache.MemorySource{Latency: cfg.MemLatency})
		h.StoreBuffered = cfg.StoreBuffered
		h.FastPath = cfg.Engine == machine.EngineFast
		h.TLB = cache.NewTLB(cfg.TLB)
		t := time.Now()
		for _, a := range stream {
			h.Access(a.addr, int(a.size), a.write)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(stream)))
	}
	return median(per), len(stream), nil
}

// prefixBuilds times experiments.BuildPrefix for each distinct warm
// prefix the warm sweep's points declare.
func prefixBuilds(ctx context.Context, run *runCtx, specs []experiments.PointSpec) ([]float64, error) {
	seen := map[experiments.PrefixSpec]bool{}
	var out []float64
	for _, ps := range specs {
		spec := experiments.PrefixSpec{Machine: ps.Machine, Procs: ps.Procs, Scale: ps.Scale,
			WarmupCalls: ps.Warmup, Distribute: true}
		if seen[spec] {
			continue
		}
		seen[spec] = true
		sp := run.tr.begin(ps.Machine, "experiments.BuildPrefix", nil)
		_, err := experiments.BuildPrefix(ctx, spec)
		d := sp.end()
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// finishTrace records the tracing overhead, prints the span summary and
// writes the spans out.
func finishTrace(run *runCtx, overhead time.Duration) error {
	spans := run.tr.snapshot()
	totals := summarize(spans)
	run.set("trace.overhead_s", overhead.Seconds())
	run.set("trace.spans", float64(len(spans)))
	printSummary(os.Stderr, totals, overhead)
	path, err := writeSpans(run.outDir, fmt.Sprintf("spans-%s-seed%d.json", run.workload, run.seed), spans)
	if err != nil {
		return err
	}
	run.extra["spans_file"] = path
	self := map[string]float64{}
	for _, lt := range totals {
		self[lt.Name] = lt.Self.Seconds()
	}
	run.extra["self_s"] = self
	return nil
}
