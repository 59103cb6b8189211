package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hoop/internal/cc"
	"hoop/internal/cc/cctest"
	"hoop/internal/engine"
	"hoop/internal/harness"
	"hoop/internal/workload"
)

// The full-size ContentionFigure grid: every scheme under both policies
// at each skew and thread count, contentionTxs committed txs per cell on
// a contentionKeys-word pool of contentionOps read-modify-write pairs per
// tx. The traced probe drives the same grid through cc directly.
var (
	contentionThetas  = []float64{0.5, 0.9, 1.2}
	contentionThreads = []int{2, 4, 8}
)

const (
	contentionTxs  = 6000
	contentionKeys = 256
	contentionOps  = 4
)

// contentionLabels returns the row and column labels the figure's grid
// must carry, in order: the traced probe drives exactly this grid.
func contentionLabels() (rows, cols []string) {
	for _, s := range engine.AllSchemes {
		for _, p := range cc.Policies {
			rows = append(rows, s+"/"+string(p))
		}
	}
	for _, th := range contentionThetas {
		for _, n := range contentionThreads {
			cols = append(cols, fmt.Sprintf("z%.1f/t%d", th, n))
		}
	}
	return rows, cols
}

// contentionRep runs harness.ContentionFigure at full size once. Its
// set-up is the call's options and the grid labels the output is checked
// against.
func contentionRep(e *env, tr *tracer) repResult {
	var r repResult
	var opts harness.Options
	var rows, cols []string
	r.setup = timeSetup(func() {
		opts = harness.Options{Seed: e.seed, Workers: e.workers}
		rows, cols = contentionLabels()
	})
	cells := len(rows) * len(cols)
	r.attempted = int64(cells)

	sp := tr.begin("harness.ContentionFigure", "contention", 0)
	t := startTimer()
	tput, aborts, err := harness.ContentionFigure(opts)
	r.wall, r.cpu, r.heap = t.stop()
	tr.end(sp, nil)
	if err != nil {
		r.failed = int64(cells)
		r.err = fmt.Errorf("contention: %w", err)
		return r
	}
	if !slices.Equal(tput.Rows, rows) || !slices.Equal(tput.Cols, cols) {
		r.fail(int64(cells), "contention: grid is %v x %v, want %v x %v", tput.Rows, tput.Cols, rows, cols)
		return r
	}
	var rates []float64
	got := 0
	for i, row := range tput.Cells {
		for j, v := range row {
			got++
			a := aborts.Cells[i][j]
			if !(v > 0) || math.IsInf(v, 0) || !(a >= 0 && a < 100) {
				r.fail(1, "contention: cell %s %s has throughput %v Ktx/s and abort rate %v%%", tput.Rows[i], tput.Cols[j], v, a)
				continue
			}
			rates = append(rates, v*1e3)
			r.units += contentionTxs
		}
	}
	if got != cells {
		r.fail(int64(cells-got), "contention: grid has %d cells, want %d", got, cells)
	}
	r.simRate = geoMean(rates)
	r.digest = digestOf([2][][]float64{tput.Cells, aborts.Cells})
	r.info = append(r.info, fmt.Sprintf("contention: %d cells x %d txs, geometric-mean simulated throughput %.1f Ktx/s",
		got, contentionTxs, r.simRate/1e3))
	return r
}

// ccCell is one grid point of the contention probe.
type ccCell struct {
	scheme  string
	policy  cc.Policy
	theta   float64
	threads int

	run     time.Duration // host time of Runner.Run
	window  engine.RunSnapshot
	pages   int
	commits int
	err     error
}

func (c *ccCell) name() string {
	return fmt.Sprintf("%s/%s/z%.1f/t%d", c.scheme, c.policy, c.theta, c.threads)
}

// contentionProbe drives every grid point through cc.New and Runner.Run
// with history recording on, and checks each history with the cctest
// serializability and final-state oracles.
func contentionProbe(e *env, tr *tracer, r repResult, lm layerMetrics) repResult {
	var cells []*ccCell
	for _, s := range engine.AllSchemes {
		for _, p := range cc.Policies {
			for _, th := range contentionThetas {
				for _, n := range contentionThreads {
					cells = append(cells, &ccCell{scheme: s, policy: p, theta: th, threads: n})
				}
			}
		}
	}
	root := tr.begin("cc cells", "contention", 0)
	next := make(chan *ccCell, len(cells)) // holds every cell
	for _, c := range cells {
		next <- c
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < e.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				runCCCell(e.seed, c, tr, root)
			}
		}()
	}
	wg.Wait()
	tr.end(root, nil)

	all, hoopAgg := newCounterAgg(), newCounterAgg()
	schemeAgg := map[string]*counterAgg{}
	schemeNs := map[string]time.Duration{}
	policyRun := map[cc.Policy]time.Duration{}
	policyAgg := map[cc.Policy]*counterAgg{}
	var pages []float64
	for _, c := range cells {
		r.attempted++
		if c.err != nil {
			r.fail(1, "contention probe %s: %v", c.name(), c.err)
			continue
		}
		if c.commits != contentionTxs || c.window.Txs != contentionTxs {
			r.fail(1, "contention probe %s: %d commits recorded, %d in the window, want %d", c.name(), c.commits, c.window.Txs, contentionTxs)
		}
		if schemeAgg[c.scheme] == nil {
			schemeAgg[c.scheme] = newCounterAgg()
		}
		if policyAgg[c.policy] == nil {
			policyAgg[c.policy] = newCounterAgg()
		}
		schemeAgg[c.scheme].addWindow(c.window)
		policyAgg[c.policy].addWindow(c.window)
		all.addWindow(c.window)
		if c.scheme == engine.SchemeHOOP {
			hoopAgg.addWindow(c.window)
		}
		schemeNs[c.scheme] += c.run
		policyRun[c.policy] += c.run
		pages = append(pages, float64(c.pages))
	}
	for s, a := range schemeAgg {
		lm["scheme."+s+".ns_per_tx"] = ratio(float64(schemeNs[s]), float64(a.txs))
		lm["scheme."+s+".bytes_per_tx"] = a.bytesPerTx()
	}
	for p, a := range policyAgg {
		lm["cc."+string(p)+".abort_ratio"] = ratio(float64(a.aborts), float64(a.aborts+a.txs))
		lm["cc."+string(p)+".ns_per_commit"] = ratio(float64(policyRun[p]), float64(a.txs))
	}
	hoopAgg.setHoop(lm)
	all.setMemory(lm)
	lm["engine.new_ms"] = tr.meanMillis("engine.New")
	lm["mem.pages"] = median(pages)
	return r
}

// runCCCell builds one grid point's system the way the contention figure
// does, runs it through cc with recording, and checks the history.
func runCCCell(seed uint64, c *ccCell, tr *tracer, root int) {
	group := "cell:" + c.name()
	cfg := engine.DefaultConfig(c.scheme)
	cfg.Threads = c.threads
	if c.threads > cfg.Cores {
		cfg.Cores = c.threads
	}
	cfg.Abortable = true
	id := tr.begin("engine.New", group, root)
	sys, err := engine.New(cfg)
	tr.end(id, nil)
	if err != nil {
		c.err = err
		return
	}
	id = tr.begin("cc.New", group, root)
	runner, err := cc.New(sys, cc.Config{Policy: c.policy, Record: true})
	tr.end(id, nil)
	if err != nil {
		c.err = err
		return
	}
	srcs := workload.Contention{Keys: contentionKeys, OpsPerTx: contentionOps, Theta: c.theta}.Sources(c.threads, seed)
	before := sys.Snapshot()
	start := time.Now()
	runner.Run(srcs, contentionTxs)
	c.run = time.Since(start)
	c.window = sys.Snapshot().Delta(before)
	tr.record("Runner.Run", group, root, start, c.run, map[string]int64{"txs": c.window.Txs, "aborts": c.window.Aborts})
	h := runner.History()
	c.commits = len(h.Commits)
	c.pages = sys.Durable().PagesAllocated()
	id = tr.begin("cctest.Check", group, root)
	c.err = cctest.Check(h)
	tr.end(id, nil)
	if c.err != nil {
		return
	}
	id = tr.begin("cctest.CheckFinalState", group, root)
	c.err = cctest.CheckFinalState(h, sys)
	tr.end(id, nil)
}
