// Command hoopperf is the repository benchmark. It runs one named workload
// (matrix, contention or kv-soak), checks the outputs, and prints one JSON
// result line last.
//
// Untraced (-trace 0), it repeats the workload until -seconds of timed
// phases have passed (at least once) and reports the end-to-end metrics as
// medians over the repetitions. Traced (-trace 1), it runs the workload once
// untraced and once with spans around every call into a layer, then probes
// the layers the workload loads, and reports the per-layer metrics. The
// spans are written under .bench_build/spans.
//
// Every simulated output must repeat exactly across repetitions of one
// seed; a mismatch is a failed run.
//
// Usage, from the repository root (hoopperf/run.sh builds and runs it):
//
//	hoopperf --workload matrix|contention|kv-soak|all [--seed 1] [--seconds 20] [--trace 0|1]
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program uses.
type spec struct {
	Paper struct {
		Throughput map[string]float64 `json:"throughput"`
		Traffic    map[string]float64 `json:"traffic"`
	} `json:"paper_reference"`
	KV kvSpec `json:"kv_soak"`
}

// bench is one named benchmark workload.
type bench struct {
	// rep runs one repetition: set-up, then the timed phase. tr is nil
	// when untraced.
	rep func(e *env, tr *tracer) repResult
	// probe runs after the traced repetition and fills the per-layer
	// metrics from it and from direct calls into the layers.
	probe func(e *env, tr *tracer, traced repResult, lm layerMetrics) repResult
}

// env is what every workload gets: the seed, the worker bound and the
// embedded spec.
type env struct {
	seed    uint64
	workers int
	spec    spec
}

var workloads = map[string]bench{
	"matrix":     {rep: matrixRep, probe: matrixProbe},
	"contention": {rep: contentionRep, probe: contentionProbe},
	"kv-soak":    {rep: kvRep, probe: kvProbe},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hoopperf: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hoopperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one result line each)")
	seed := fs.Uint64("seed", 1, "workload seed (1 matches the golden grids)")
	seconds := fs.Int("seconds", 20, "host seconds of timed phases to measure (at least one repetition)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("-workload: unknown workload %q (%s, or all)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	for i, s := range paperSchemes {
		_, tput := sp.Paper.Throughput[s]
		_, traffic := sp.Paper.Traffic[s]
		if !tput || (!traffic && i < len(paperSchemes)-1) {
			return fmt.Errorf("spec.json: no paper reference for scheme %q", s)
		}
	}
	if len(sp.KV.Rates) == 0 || sp.KV.RungSimMs <= 0 || sp.KV.P999LimitUs <= 0 {
		return fmt.Errorf("spec.json: kv_soak needs rates, rung_sim_ms and p999_limit_us")
	}
	e := &env{seed: *seed, workers: runtime.NumCPU(), spec: sp}
	if e.workers > runtime.GOMAXPROCS(0) {
		e.workers = runtime.GOMAXPROCS(0)
	}

	fp := fingerprintOf(*seed)
	for _, n := range names {
		var res result
		if *traceFlag == 0 {
			res = measure(e, workloads[n], *seconds)
		} else {
			res = traced(e, workloads[n], n)
		}
		if err := res.write(stdout, n, fp); err != nil {
			return err
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
