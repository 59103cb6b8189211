package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Clocks: host metrics time the simulator as a program; simulated metrics
// are outputs of the modelled hardware and repeat exactly for a seed.
const (
	clockHost = "host"
	clockSim  = "simulated"
)

type metricDef struct {
	name, unit, clock string
}

// endToEnd is every end-to-end metric; each workload reports all of them.
var endToEnd = []metricDef{
	{"wall_s", "s", clockHost},
	{"cpu_s", "s", clockHost},
	{"setup_s", "s", clockHost},
	{"sim_tx_per_s", "tx/s", clockHost},
	{"heap_mb", "MiB", clockHost},
	{"sim_rate", "1/s", clockSim},
}

// Matrix and contention construct their call arguments in nano- to
// microseconds, so timeSetup times the construction in setupSamples
// batches of at least setupBatch each and reports the median per call:
// single timer reads would mostly measure the timer.
const (
	setupSamples = 21
	setupBatch   = 200 * time.Microsecond
)

// repResult is one repetition of a workload.
type repResult struct {
	wall, cpu time.Duration
	// setup is the set-up time in seconds (a float: matrix and contention
	// set up in nanoseconds).
	setup float64
	// heap holds the live-heap samples (MiB) of the timed phase.
	heap []float64
	// units is the committed transactions (matrix, contention) or served
	// requests (kv-soak) of the timed phase.
	units             int64
	attempted, failed int64
	problems          []string
	// err ends the run: the workload could not complete a repetition.
	err error
	// digest covers every simulated output of the repetition.
	digest string
	// simRate is the sim_rate end-to-end metric.
	simRate float64
	// info is printed before the result line.
	info []string
	// out is the workload's raw output, for its traced probe.
	out any
}

func (r *repResult) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timer measures wall and CPU (user+sys of the whole process) time, and
// samples the Go collector's live-heap size every heapPeriod while it runs.
type timer struct {
	wall time.Time
	cpu  time.Duration
	heap *heapSampler
}

func startTimer() timer { return timer{wall: time.Now(), cpu: cpuTime(), heap: startHeap()} }

// stop ends the measurement and returns the live-heap samples (MiB).
func (t timer) stop() (wall, cpu time.Duration, heapMiB []float64) {
	wall, cpu = time.Since(t.wall), cpuTime()-t.cpu
	return wall, cpu, t.heap.finish()
}

// heapPeriod is the live-heap sampling period. heap_mb reports the median
// live heap rather than a peak: on a 2-CPU host the matrix's peak resident
// set and peak live heap each varied by about 20% between runs, depending
// on which cells were in flight when the collector's cycles fell.
const heapPeriod = 20 * time.Millisecond

type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeap() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(heapPeriod)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					s.samples = append(s.samples, float64(sample[0].Value.Uint64())/(1<<20))
				}
			}
		}
	}()
	return s
}

func (s *heapSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reports the process's peak resident set (Linux reports
// Maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// timeSetup returns the median duration of one build call in seconds.
func timeSetup(build func()) float64 {
	per := make([]float64, setupSamples)
	for i := range per {
		for n := 1; ; n *= 2 {
			start := time.Now()
			for j := 0; j < n; j++ {
				build()
			}
			if d := time.Since(start); d >= setupBatch {
				per[i] = d.Seconds() / float64(n)
				break
			}
		}
	}
	return median(per)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// digestOf hashes a value's full printed form. fmt prints unexported
// fields and sorts map keys, and %v prints floats in their shortest exact
// form, so equal digests mean bit-identical outputs.
func digestOf(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

// result is what one run prints.
type result struct {
	attempted, failed int64
	problems          []string
	info              []string
	defs              []metricDef
	values            map[string]float64
}

func (res *result) add(r repResult) {
	res.attempted += r.attempted
	res.failed += r.failed
	res.problems = append(res.problems, r.problems...)
}

// checkRepeat compares a repetition's simulated outputs with the first's.
func (res *result) checkRepeat(i int, first, r repResult) {
	if r.err == nil && first.err == nil && r.digest != first.digest {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf(
			"determinism: simulated outputs of repetition %d (digest %s) differ from repetition 0 (digest %s)", i, r.digest, first.digest))
	}
}

// measure is the untraced mode: repetitions until the timed phases have
// used the budget, end-to-end metrics as medians over them.
func measure(e *env, w bench, seconds int) result {
	budget := time.Duration(seconds) * time.Second
	var reps []repResult
	var timed time.Duration
	for {
		r := w.rep(e, nil)
		reps = append(reps, r)
		timed += r.wall
		if r.err != nil || timed+r.wall > budget {
			break
		}
	}
	res := result{defs: endToEnd, info: reps[0].info}
	var walls, cpus, setups, rates, heaps []float64
	for i, r := range reps {
		res.add(r)
		if r.err != nil {
			res.failed++
			res.problems = append(res.problems, r.err.Error())
			continue
		}
		res.checkRepeat(i, reps[0], r)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		setups = append(setups, r.setup)
		rates = append(rates, float64(r.units)/r.wall.Seconds())
		heaps = append(heaps, r.heap...)
	}
	res.info = append(res.info, fmt.Sprintf("repetitions: %d (wall per repetition: %s)", len(reps), formatSeconds(walls)))
	res.info = append(res.info, fmt.Sprintf("peak resident set (getrusage maxrss): %.1f MiB", peakRSSMiB()))
	res.values = map[string]float64{
		"wall_s":       median(walls),
		"cpu_s":        median(cpus),
		"setup_s":      median(setups),
		"sim_tx_per_s": median(rates),
		"heap_mb":      median(heaps),
		"sim_rate":     reps[0].simRate,
	}
	return res
}

// traced is the traced mode: one untraced repetition as the reference,
// one traced repetition, then the workload's layer probes.
func traced(e *env, w bench, name string) result {
	base := w.rep(e, nil)
	tr := newTracer()
	t := w.rep(e, tr)
	lm := newLayerMetrics()
	if t.err == nil {
		t = w.probe(e, tr, t, lm)
	}
	res := result{defs: layerDefs}
	res.info = append(res.info, t.info...)
	for _, r := range []repResult{base, t} {
		res.add(r)
		if r.err != nil {
			res.failed++
			res.problems = append(res.problems, r.err.Error())
		}
	}
	res.checkRepeat(1, base, t)
	if base.err == nil && t.err == nil {
		lm["trace_overhead"] = t.wall.Seconds() / base.wall.Seconds()
	}
	res.info = append(res.info, tr.selfTimes()...)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tr.writeFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "hoopperf: spans not written: %v\n", err)
	} else {
		res.info = append(res.info, "spans written to "+path)
	}
	res.values = lm
	return res
}

func formatSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}

// fingerprint identifies the code and machine a result came from, so that
// results from different machines are never compared.
type fingerprint struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
}

func fingerprintOf(seed uint64) fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		Source:     sourceDigest(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+modified"
				}
			}
		}
	}
	return fp
}

// sourceDigest hashes go.mod and every .go file of the module under the
// working directory, which identifies the code where no git metadata is
// available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if path != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type recordMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
}

// write prints the info lines, one record line carrying the fingerprint
// and every metric with its clock, and the result line last.
func (res result) write(w io.Writer, name string, fp fingerprint) error {
	for _, l := range res.info {
		fmt.Fprintln(w, l)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	metrics := map[string]metricValue{}
	record := map[string]recordMetric{}
	for _, d := range res.defs {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is not finite (%v)", d.name, v))
			v = 0
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		record[d.name] = recordMetric{Value: v, Unit: d.unit, Clock: d.clock}
	}
	rec, err := json.Marshal(struct {
		Workload    string                  `json:"workload"`
		Fingerprint fingerprint             `json:"fingerprint"`
		Attempted   int64                   `json:"attempted"`
		Failed      int64                   `json:"failed"`
		Metrics     map[string]recordMetric `json:"metrics"`
	}{name, fp, res.attempted, res.failed, record})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record: %s\n", rec)
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(res.problems) == 0, attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
