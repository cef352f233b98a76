package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/wave5"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 11

// runReproduce is the single-node paper reproduction: fig2, fig6 and
// warmsweep through experiments.Registry, as cascade-sim -exp runs them.
func runReproduce(run *runCtx) error {
	ctx := context.Background()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := reproduceSetup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	run.extra["setup_s_samples"] = setups

	points := 0
	for _, name := range sweepNames {
		points += pointCount(name, sweepScale)
	}
	if !run.traced {
		settle()
		resetPeakRSS(run)
		var walls, sweepMS []float64
		perSweepMS := map[string][]float64{}
		var accesses int64
		for start := time.Now(); len(walls) == 0 || time.Since(start) < run.seconds; {
			settle()
			wall, perSweep, acc, err := reproduceUnit(ctx, run)
			if err != nil {
				return err
			}
			run.attempted += points
			walls = append(walls, wall.Seconds())
			sweepMS = append(sweepMS, perSweep...)
			for i, name := range sweepNames {
				perSweepMS[name] = append(perSweepMS[name], perSweep[i])
			}
			accesses = acc
		}
		wall := median(walls)
		run.set("setup_s", median(setups))
		run.set("wall_s", wall)
		run.set("work_per_s", float64(points)/wall)
		run.set("sim_accesses_per_s", float64(accesses)/wall)
		run.set("p50_ms", median(sweepMS))
		run.extra["wall_s_samples"] = walls
		medians := map[string]float64{}
		for name, xs := range perSweepMS {
			medians[name] = median(xs)
		}
		run.extra["sweep_ms"] = medians
		run.extra["points_per_unit"] = points
		run.extra["sim_accesses_per_unit"] = accesses
		return nil
	}

	// The traced pass runs the sweeps point by point, so that spans can
	// sit around each RunPoint; the same pass untraced is its baseline.
	var walls2 [2]time.Duration
	var pass []decomposedSweep
	for i, tr := range []*tracer{nil, run.tr} {
		settle()
		var err error
		if pass, walls2[i], err = decomposedPass(ctx, tr, sweepNames, sweepScale); err != nil {
			return err
		}
		run.attempted += points
		for _, ds := range pass {
			checkGolden(run, "decomposed pass", ds.name, ds.canon)
		}
	}
	run.extra["decomposed_wall_s"] = []float64{walls2[0].Seconds(), walls2[1].Seconds()}
	recordPass(run, pass, walls2[1])
	if err := simulatorLayers(ctx, run, pass); err != nil {
		return err
	}
	return finishTrace(run, walls2[1]-walls2[0])
}

// reproduceSetup is the lazy set-up a first point would otherwise pay:
// resolve the sweeps in the registry, plan their points, and build one
// dataset and machine per preset.
func reproduceSetup() (time.Duration, error) {
	t := time.Now()
	for _, name := range sweepNames {
		if _, ok := experiments.Lookup(name); !ok {
			return 0, fmt.Errorf("experiment %s not registered", name)
		}
		if _, ok := experiments.Decompose(name, sweepConfig(sweepScale)); !ok {
			return 0, fmt.Errorf("experiment %s has no point decomposition", name)
		}
	}
	for _, cfg := range experiments.Machines() {
		if _, err := wave5.Build(wave5.DefaultParams().Scaled(sweepScale)); err != nil {
			return 0, err
		}
		if _, err := machine.New(cfg); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// reproduceUnit runs the three sweeps once, checking each against its
// golden hash. It returns the unit's wall time, each sweep's time and
// the simulated L1 accesses the results report.
func reproduceUnit(ctx context.Context, run *runCtx) (time.Duration, []float64, int64, error) {
	var wall time.Duration
	var perSweep []float64
	var accesses int64
	for _, name := range sweepNames {
		e, _ := experiments.Lookup(name)
		t := time.Now()
		r, err := e.Run(ctx, sweepConfig(sweepScale))
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		rendered, err := server.RenderJSON(r)
		d := time.Since(t)
		if err != nil {
			return 0, nil, 0, err
		}
		wall += d
		perSweep = append(perSweep, ms(d))
		canon, err := canonical(rendered)
		if err != nil {
			return 0, nil, 0, err
		}
		checkGolden(run, "reproduce", name, canon)
		accesses += simAccesses(canon)
	}
	return wall, perSweep, accesses, nil
}
