package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hoop/internal/engine"
	"hoop/internal/harness"
	"hoop/internal/persist"
	"hoop/internal/workload"
)

// matrixTxs is the measured transactions per cell in harness quick mode.
const matrixTxs = 1200

// matrixRep runs the quick Figure 7-9 matrix once.
func matrixRep(e *env, tr *tracer) repResult {
	var r repResult
	var opts harness.Options
	var suite []workload.Workload
	var schemes []string
	r.setup = timeSetup(func() {
		opts = harness.Options{Quick: true, Seed: e.seed, Workers: e.workers}
		suite = workload.PaperSuite(opts.WL)
		schemes = append([]string(nil), engine.AllSchemes...)
	})
	cells := len(suite) * len(schemes)
	r.attempted = int64(cells)

	sp := tr.begin("harness.RunMatrixOn", "matrix", 0)
	t := startTimer()
	m, err := harness.RunMatrixOn(opts, suite, schemes)
	r.wall, r.cpu, r.heap = t.stop()
	if err != nil {
		tr.end(sp, nil)
		r.failed = int64(cells)
		r.err = fmt.Errorf("matrix: %w", err)
		return r
	}
	var rates []float64
	for _, w := range m.Workloads {
		for _, s := range m.Schemes {
			met := m.Cells[w][s]
			r.units += met.Txs
			if met.Txs != matrixTxs {
				r.fail(1, "matrix: cell %s/%s committed %d of %d txs", w, s, met.Txs, matrixTxs)
				continue
			}
			rates = append(rates, met.Throughput())
		}
	}
	tr.end(sp, map[string]int64{"cells": int64(cells), "txs": r.units})
	r.simRate = geoMean(rates)
	r.digest = digestOf(m.Cells)

	h := harness.ComputeHeadline(m)
	errPct, _, lines := paperCompare(h, e.spec)
	r.info = append(r.info, strings.TrimRight(harness.FormatHeadline(h), "\n"))
	r.info = append(r.info, lines...)
	r.info = append(r.info, fmt.Sprintf("matrix: %d cells, %d txs, paper_err %.4f%%, pool: %v", cells, r.units, errPct, m.Stats))
	r.out = m
	return r
}

// matrixProbe fills the per-layer metrics of the matrix: it re-runs the 49
// cells as direct harness.Cells (one RunCells call each, on a pool of
// e.workers) and times the engine, workload and HOOP quiesce calls of one
// HOOP cell per workload.
func matrixProbe(e *env, tr *tracer, r repResult, lm layerMetrics) repResult {
	m := r.out.(*harness.Matrix)
	suite := workload.PaperSuite(workload.Options{})

	st := m.Stats
	lm["harness.pool_util"] = ratio(st.CellSum.Seconds(), st.Wall.Seconds()*float64(st.Workers))
	lm["harness.max_cell_s"] = st.MaxCell.Seconds()

	// Direct cells, in the matrix's cell order.
	type job struct {
		w workload.Workload
		s string
	}
	var jobs []job
	for _, w := range suite {
		for _, s := range engine.AllSchemes {
			jobs = append(jobs, job{w, s})
		}
	}
	walls := make([]time.Duration, len(jobs))
	mets := make([]harness.Metrics, len(jobs))
	errs := make([]error, len(jobs))
	root := tr.begin("direct cells", "matrix", 0)
	var wg sync.WaitGroup
	next := make(chan int, len(jobs)) // holds every job index
	for i := range jobs {
		next <- i
	}
	close(next)
	for k := 0; k < e.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				id := tr.begin("harness.RunCells", "cell:"+j.w.Name+"/"+j.s, root)
				res, cs, err := harness.RunCells([]harness.Cell{{Scheme: j.s, Workload: j.w, Txs: matrixTxs, Seed: e.seed + 1}}, 1)
				walls[i], errs[i] = cs.Wall, err
				if err == nil {
					mets[i] = res[0]
					tr.end(id, map[string]int64{"txs": res[0].Txs, "loads": res[0].Loads, "stores": res[0].Stores})
				} else {
					tr.end(id, nil)
				}
			}
		}()
	}
	wg.Wait()
	tr.end(root, nil)

	var directSum time.Duration
	nsPerTx := map[string][2]float64{}
	for i, j := range jobs {
		r.attempted++
		if errs[i] != nil {
			r.fail(1, "direct cell %s/%s: %v", j.w.Name, j.s, errs[i])
			continue
		}
		if digestOf(mets[i]) != digestOf(m.Cells[j.w.Name][j.s]) {
			r.fail(1, "direct cell %s/%s differs from the matrix pipeline's result", j.w.Name, j.s)
		}
		directSum += walls[i]
		acc := nsPerTx[j.s]
		nsPerTx[j.s] = [2]float64{acc[0] + float64(walls[i]), acc[1] + float64(mets[i].Txs)}
	}
	lm["harness.pipeline_ratio"] = ratio(st.CellSum.Seconds(), directSum.Seconds())

	all, hoopAgg := newCounterAgg(), newCounterAgg()
	for _, s := range engine.AllSchemes {
		agg := newCounterAgg()
		for _, w := range m.Workloads {
			agg.addMetrics(m.Cells[w][s])
			all.addMetrics(m.Cells[w][s])
			if s == engine.SchemeHOOP {
				hoopAgg.addMetrics(m.Cells[w][s])
			}
		}
		lm["scheme."+s+".bytes_per_tx"] = agg.bytesPerTx()
		lm["scheme."+s+".ns_per_tx"] = ratio(nsPerTx[s][0], nsPerTx[s][1])
	}
	hoopAgg.setHoop(lm)
	all.setMemory(lm)

	errPct, vals, _ := paperCompare(harness.ComputeHeadline(m), e.spec)
	lm["paper_err"] = errPct
	for k, v := range vals {
		lm[k] = v
	}

	// Layer probes: one HOOP cell per workload, driven call by call.
	var runNs, ops float64
	var pages []float64
	for _, w := range suite {
		r.attempted++
		group := "probe:" + w.Name
		cfg := engine.DefaultConfig(engine.SchemeHOOP)
		cfg.Abortable = w.NeedsAbort
		id := tr.begin("engine.New", group, 0)
		sys, err := engine.New(cfg)
		tr.end(id, nil)
		if err != nil {
			r.fail(1, "probe %s: engine.New: %v", w.Name, err)
			continue
		}
		start := time.Now()
		runners := w.Runners(sys, e.seed+1)
		d := time.Since(start)
		tr.record("Workload.Runners", group, 0, start, d, nil)
		lm["workload."+w.Name+".setup_ms"] = float64(d) / 1e6

		sys.DrainCache()
		id = tr.begin("persist.Quiescer", group, 0)
		if q, ok := sys.Scheme().(persist.Quiescer); ok {
			q.Quiesce(sys.MaxClock())
		}
		tr.end(id, nil)
		sys.ResetMemoryQueues()
		sys.SyncClocks()

		before := sys.Snapshot()
		start = time.Now()
		sys.Run(runners, matrixTxs)
		d = time.Since(start)
		delta := sys.Snapshot().Delta(before)
		tr.record("System.Run", group, 0, start, d, map[string]int64{"txs": delta.Txs, "loads": delta.Loads, "stores": delta.Stores})
		if delta.Txs != matrixTxs {
			r.fail(1, "probe %s: System.Run committed %d of %d txs", w.Name, delta.Txs, matrixTxs)
		}
		runNs += float64(d)
		ops += float64(delta.Loads + delta.Stores)
		pages = append(pages, float64(sys.Durable().PagesAllocated()))
	}
	// engine.New for the other schemes, so engine.new_ms covers all seven.
	for _, s := range engine.AllSchemes {
		if s == engine.SchemeHOOP {
			continue
		}
		id := tr.begin("engine.New", "probe:"+s, 0)
		_, err := engine.New(engine.DefaultConfig(s))
		tr.end(id, nil)
		if err != nil {
			r.fail(1, "probe: engine.New(%s): %v", s, err)
		}
	}
	lm["engine.new_ms"] = tr.meanMillis("engine.New")
	lm["engine.ns_per_op"] = ratio(runNs, ops)
	lm["hoop.quiesce_ms"] = tr.meanMillis("persist.Quiescer")
	lm["mem.pages"] = median(pages)
	return r
}
