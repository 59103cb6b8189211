package main

import (
	"fmt"
	"math"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/harness"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// layerMetrics holds the traced run's per-layer values by name. Every
// traced run reports every per-layer metric; a layer the workload does
// not load reads 0.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics { return layerMetrics{} }

// paperSuiteNames are the matrix's workload names (vector-64, ..., tpcc).
var paperSuiteNames = func() []string {
	var names []string
	for _, w := range workload.PaperSuite(workload.Options{}) {
		names = append(names, w.Name)
	}
	return names
}()

// paperSchemes are the schemes the paper's headline compares HOOP with, in
// its order; Ideal has a throughput reference only.
var paperSchemes = []string{engine.SchemeRedo, engine.SchemeUndo, engine.SchemeOSP, engine.SchemeLSM, engine.SchemeLAD, engine.SchemeNative}

// layerDefs is every per-layer metric, grouped by the layer it measures.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"harness.pool_util", "ratio", clockHost},
		{"harness.max_cell_s", "s", clockHost},
		{"harness.pipeline_ratio", "ratio", clockHost},
		{"engine.new_ms", "ms", clockHost},
		{"engine.ns_per_op", "ns", clockHost},
	}
	for _, w := range paperSuiteNames {
		d = append(d, metricDef{"workload." + w + ".setup_ms", "ms", clockHost})
	}
	for _, s := range engine.AllSchemes {
		d = append(d,
			metricDef{"scheme." + s + ".ns_per_tx", "ns", clockHost},
			metricDef{"scheme." + s + ".bytes_per_tx", "B", clockSim})
	}
	d = append(d,
		metricDef{"hoop.gc_runs", "count", clockSim},
		metricDef{"hoop.gc_reduction", "ratio", clockSim},
		metricDef{"hoop.map_hit_ratio", "ratio", clockSim},
		metricDef{"hoop.slices_per_tx", "count", clockSim},
		metricDef{"hoop.parallel_read_frac", "ratio", clockSim},
		metricDef{"hoop.quiesce_ms", "ms", clockHost},
		metricDef{"hoop.recover_ms", "ms", clockHost},
		metricDef{"hoop.recover_sim_us", "us", clockSim},
		metricDef{"cache.l1_hit_ratio", "ratio", clockSim},
		metricDef{"cache.llc_miss_ratio", "ratio", clockSim},
		metricDef{"nvm.read_bytes_per_tx", "B", clockSim},
		metricDef{"nvm.energy_pj_per_tx", "pJ", clockSim},
		metricDef{"mem.pages", "count", clockSim},
	)
	for _, p := range cc.Policies {
		d = append(d,
			metricDef{"cc." + string(p) + ".abort_ratio", "ratio", clockSim},
			metricDef{"cc." + string(p) + ".ns_per_commit", "ns", clockHost})
	}
	d = append(d,
		metricDef{"loadgen.ns_per_req", "ns", clockHost},
		metricDef{"service.submit_ns_p50", "ns", clockHost},
		metricDef{"service.submit_ns_p99", "ns", clockHost},
		metricDef{"service.drain_ms", "ms", clockHost},
		metricDef{"shard.max_qdelay_us", "us", clockSim},
		metricDef{"shard.shed", "count", clockSim},
		metricDef{"kv.sim_max_rate", "req/s", clockSim},
		metricDef{"kv.sim_p50_us", "us", clockSim},
		metricDef{"kv.sim_p999_us", "us", clockSim},
		metricDef{"kv.sojourn_samples", "count", clockSim},
		metricDef{"trace_overhead", "ratio", clockHost},
		metricDef{"paper_err", "%", clockSim},
	)
	for _, s := range paperSchemes {
		d = append(d, metricDef{"paper.tput." + s, "ratio", clockSim})
	}
	for _, s := range paperSchemes[:len(paperSchemes)-1] {
		d = append(d, metricDef{"paper.traffic." + s, "ratio", clockSim})
	}
	return d
}()

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterAgg sums simulated counters over cells or shards.
type counterAgg struct {
	txs    int64
	aborts int64
	energy float64
	c      map[string]int64
}

func newCounterAgg() *counterAgg { return &counterAgg{c: map[string]int64{}} }

func (a *counterAgg) addMetrics(m harness.Metrics) {
	a.txs += m.Txs
	a.energy += m.EnergyPJ
	for k, v := range m.Counters {
		a.c[k] += v
	}
}

func (a *counterAgg) addWindow(d engine.RunSnapshot) {
	a.txs += d.Txs
	a.aborts += d.Aborts
	a.energy += d.TotalEnergyPJ()
	for _, c := range d.Counters {
		a.c[c.Name] += c.Value
	}
}

func (a *counterAgg) get(name string) float64 { return float64(a.c[name]) }

func (a *counterAgg) bytesPerTx() float64 {
	return ratio(a.get(sim.StatNVMBytesWritten), float64(a.txs))
}

// setHoop fills the hoop.* counter metrics from HOOP cells or shards.
func (a *counterAgg) setHoop(lm layerMetrics) {
	lookups := a.get(sim.StatMapHits) + a.get(sim.StatMapMisses)
	lm["hoop.gc_runs"] = a.get(sim.StatGCRuns)
	lm["hoop.gc_reduction"] = ratio(a.get(sim.StatGCBytesCoalesed), a.get(sim.StatGCBytesScanned))
	lm["hoop.map_hit_ratio"] = ratio(a.get(sim.StatMapHits), lookups)
	lm["hoop.slices_per_tx"] = ratio(a.get(sim.StatSliceFlushes), float64(a.txs))
	lm["hoop.parallel_read_frac"] = ratio(a.get(sim.StatParallelRead), lookups)
}

// setMemory fills the cache.* and nvm.* metrics.
func (a *counterAgg) setMemory(lm layerMetrics) {
	accesses := a.get(sim.StatL1Hits) + a.get(sim.StatL2Hits) + a.get(sim.StatLLCHits) + a.get(sim.StatLLCMisses)
	lm["cache.l1_hit_ratio"] = ratio(a.get(sim.StatL1Hits), accesses)
	lm["cache.llc_miss_ratio"] = ratio(a.get(sim.StatLLCMisses), accesses)
	lm["nvm.read_bytes_per_tx"] = ratio(a.get(sim.StatNVMBytesRead), float64(a.txs))
	lm["nvm.energy_pj_per_tx"] = ratio(a.energy, float64(a.txs))
}

// paperCompare sets each headline ratio beside the paper's value and
// returns paper_err: 100 * mean |ln(measured / paper)| over the 11 ratios.
func paperCompare(h harness.Headline, sp spec) (float64, map[string]float64, []string) {
	vals := map[string]float64{}
	lines := []string{"headline ratio          measured      paper  (HOOP vs scheme; paper: EXPERIMENTS.md)"}
	var sum float64
	n := 0
	add := func(name string, measured, paper float64) {
		vals[name] = measured
		e := math.Inf(1)
		if measured > 0 && paper > 0 {
			e = math.Abs(math.Log(measured / paper))
		}
		sum += e
		n++
		lines = append(lines, fmt.Sprintf("%-22s %9.4f %10.4f", name, measured, paper))
	}
	for _, s := range paperSchemes {
		m := 1 + h.ThroughputGainVs[s]
		if s == engine.SchemeNative {
			m = h.VsIdealTput
		}
		add("paper.tput."+s, m, sp.Paper.Throughput[s])
	}
	for _, s := range paperSchemes[:len(paperSchemes)-1] {
		add("paper.traffic."+s, h.TrafficRatioOf[s], sp.Paper.Traffic[s])
	}
	errPct := 100 * sum / float64(n)
	lines = append(lines, fmt.Sprintf("paper_err %.4f%% over %d ratios", errPct, n))
	return errPct, vals, lines
}
