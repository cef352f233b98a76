package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/server"
)

// journalProbe times journal.Open and one Append per record on a temp
// dir, with the record shapes the coordinator journals for the pass's
// jobs: job_accepted, point_assigned and point_completed per point,
// job_merged.
func journalProbe(run *runCtx, pass []decomposedSweep) error {
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp := run.tr.begin("journal", "journal.Open", nil)
	j, _, err := journal.Open(dir, nil)
	sp.end()
	if err != nil {
		return err
	}
	var recs []journal.Record
	for k, ds := range pass {
		job := fmt.Sprintf("f%d", k+1)
		params, _ := json.Marshal(map[string]float64{"scale": sweepScale})
		recs = append(recs, journal.Record{Type: journal.TypeJobAccepted, Epoch: 1, Job: job,
			Experiment: ds.name, Params: params, Key: digest(ds.canon)})
		for _, ps := range ds.specs {
			key, err := canon.PointKey(ps)
			if err != nil {
				return err
			}
			recs = append(recs,
				journal.Record{Type: journal.TypePointAssigned, Epoch: 1, Job: job, Key: key, Index: ps.Index},
				journal.Record{Type: journal.TypePointCompleted, Epoch: 1, Job: job, Key: key, Index: ps.Index})
		}
		recs = append(recs, journal.Record{Type: journal.TypeJobMerged, Epoch: 1, Job: job, Key: digest(ds.canon)})
	}
	var per []float64
	for _, r := range recs {
		sp := run.tr.begin("journal", "journal.Append", nil)
		err := j.Append(r)
		per = append(per, us(sp.end()))
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	run.set("journal.append_us", median(per))
	run.extra["journal_probe_records"] = len(recs)
	return nil
}

// canonProbe times canon.PointKey over every point of the pass.
func canonProbe(run *runCtx, pass []decomposedSweep) {
	const rounds = 20
	var n int
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, ds := range pass {
			for _, ps := range ds.specs {
				if _, err := canon.PointKey(ps); err != nil {
					run.fail("canon.PointKey(%s/%d): %v", ps.Experiment, ps.Index, err)
				}
				n++
			}
		}
	}
	run.set("canon.point_key_us", us(time.Since(t))/float64(n))
}

// echoExperiment is a decomposition whose points return a stored real
// point result without simulating, so a point's RPC cost can be timed
// apart from its simulation.
const echoExperiment = "perfbench-echo"

// pointOverheadProbe times POST /v1/points against in-process RunPoint
// for the same echo specs. The echoed result is a real fig6 point's, so
// the RPC carries a real-sized metric snapshot.
func pointOverheadProbe(ctx context.Context, run *runCtx, client *http.Client, pass []decomposedSweep) error {
	var tmpl experiments.PointResult
	var base experiments.PointSpec
	for _, ds := range pass {
		if ds.name == "fig6" {
			tmpl, base = ds.results[len(ds.results)-1], ds.specs[len(ds.specs)-1]
		}
	}
	experiments.RegisterDecomposition(echoExperiment, experiments.Decomposition{
		Run: func(ctx context.Context, ps experiments.PointSpec) (experiments.PointResult, error) {
			r := tmpl
			r.Index = ps.Index
			return r, nil
		},
	})
	s, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	h, err := serveHTTP(s.Handler())
	if err != nil {
		return err
	}
	defer func() {
		h.close()
		_ = s.Shutdown(ctx) // nothing is queued on the probe server
	}()

	const probes = 200
	var local, remote []float64
	for i := 0; i < probes; i++ {
		spec := base
		spec.Experiment, spec.Index = echoExperiment, i // distinct keys: no cache hits
		t := time.Now()
		if _, err := experiments.RunPoint(ctx, spec); err != nil {
			return err
		}
		local = append(local, us(time.Since(t)))
		sp := run.tr.begin(echoExperiment, "server.point_rpc", nil)
		env, status, err := postJSON(ctx, client, h.url+"/v1/points", map[string]interface{}{"point": spec})
		remote = append(remote, us(sp.end()))
		if err != nil || status != http.StatusOK || env.Point == nil || env.Point.Cycles != tmpl.Cycles {
			return fmt.Errorf("point rpc %d: status %d: %v", i, status, err)
		}
	}
	run.set("server.point_overhead_us", median(remote)-median(local))
	return nil
}
