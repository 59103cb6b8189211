package main

import (
	"fmt"
	"time"

	"hoop/internal/engine"
	"hoop/internal/loadgen"
	"hoop/internal/service"
	"hoop/internal/sim"
)

// kvSpec is the kv-soak section of spec.json.
type kvSpec struct {
	Rates        []float64 `json:"rates_per_shard"`
	RungSimMs    int64     `json:"rung_sim_ms"`
	P999LimitUs  int64     `json:"p999_limit_us"`
	KeysPerShard uint64    `json:"keys_per_shard"`
	ValueBytes   int       `json:"value_bytes"`
	QueueDepth   int       `json:"queue_depth"`
}

func (s kvSpec) horizon() sim.Duration { return sim.Duration(s.RungSimMs) * sim.Millisecond }
func (s kvSpec) limit() sim.Duration   { return sim.Duration(s.P999LimitUs) * sim.Microsecond }

// rung is one fleet run at a fixed per-shard offered rate.
type rung struct {
	rate             float64
	setup, wall, cpu time.Duration
	open, drain      time.Duration
	heap             []float64 // live-heap samples of the timed phase, MiB

	offered, executed, shed []int64
	spans                   []sim.Duration // per-shard serving span from the stream's start
	maxDelay                sim.Duration
	sojourn                 sim.Histogram // merged over shards
	window                  *counterAgg   // the timed phase's counters
	pages                   []float64

	// Recovery (oracle rung only).
	recoverHost time.Duration
	recoverSim  sim.Duration
	mismatches  int

	// Per-request host timings (traced only).
	next, submit hostHist
}

// outputs is every simulated result of the rung; it must repeat exactly.
func (g *rung) outputs() any {
	return []any{g.rate, g.offered, g.executed, g.shed, g.spans, g.maxDelay, g.sojourn}
}

// meets reports whether the rung served its load within the latency limit:
// p999 at or under the limit, nothing shed, and every shard finished
// within one limit of the horizon (no growing backlog).
func (g *rung) meets(sp kvSpec) bool {
	for i := range g.shed {
		if g.shed[i] != 0 || g.spans[i] > sp.horizon()+sp.limit() {
			return false
		}
	}
	return g.sojourn.Quantile(0.999) <= sp.limit()
}

func (g *rung) served() int64 {
	var n int64
	for _, x := range g.executed {
		n += x
	}
	return n
}

// goodput is served requests per simulated second of the longest shard
// span (fleet-wide).
func (g *rung) goodput() float64 {
	var span sim.Duration
	for _, s := range g.spans {
		span = max(span, s)
	}
	return ratio(float64(g.served()), span.Seconds())
}

// kvOutcome is a kv-soak repetition's raw output.
type kvOutcome struct {
	ladder []*rung
	knee   int // index into ladder, -1 if no rung meets the limit
	rerun  *rung
}

// kvRep runs the rate ladder, each rung on a fresh fleet, then runs the
// knee rung again on a fleet that tracks the committed-write oracle and
// crashes, recovers and verifies every shard.
func kvRep(e *env, tr *tracer) repResult {
	var r repResult
	sp := e.spec.KV
	out := &kvOutcome{knee: -1}
	var digests []any
	for i, rate := range sp.Rates {
		g, err := runRung(e, rate, false, tr, fmt.Sprintf("rung:%d", i))
		if err != nil {
			r.err = fmt.Errorf("kv-soak rung %.0f/s: %w", rate, err)
			return r
		}
		out.ladder = append(out.ladder, g)
		if g.meets(sp) {
			out.knee = i
		}
		digests = append(digests, g.outputs())
	}
	if out.knee < 0 {
		r.fail(1, "kv-soak: no rung of %v req/s/shard meets p999 <= %v", sp.Rates, sp.limit())
	} else {
		g, err := runRung(e, sp.Rates[out.knee], true, tr, "knee")
		if err != nil {
			r.err = fmt.Errorf("kv-soak knee rerun: %w", err)
			return r
		}
		out.rerun = g
		if digestOf(g.outputs()) != digestOf(out.ladder[out.knee].outputs()) {
			r.fail(1, "determinism: the knee rung's rerun on an oracle-tracking fleet served a different simulated run")
		}
		if g.mismatches > 0 {
			r.fail(int64(g.mismatches), "kv-soak: VerifyRecovered found %d mismatched bytes after crash and recovery", g.mismatches)
		}
		r.simRate = out.ladder[out.knee].goodput()
	}

	rungs := out.ladder
	if out.rerun != nil {
		rungs = append(rungs[:len(rungs):len(rungs)], out.rerun)
	}
	r.info = append(r.info, fmt.Sprintf("%-6s %12s %9s %9s %5s %10s %10s %10s %10s %11s %s",
		"rung", "rate/shard", "offered", "executed", "shed", "p50", "p99", "p999", "maxqdelay", "span", "meets"))
	for i, g := range rungs {
		var offered, shed int64
		var span sim.Duration
		for j := range g.offered {
			offered += g.offered[j]
			shed += g.shed[j]
			span = max(span, g.spans[j])
			r.attempted += g.offered[j]
			if g.executed[j]+g.shed[j] != g.offered[j] {
				r.fail(g.offered[j]-g.executed[j]-g.shed[j], "kv-soak rung %d shard %d: executed %d + shed %d != offered %d",
					i, j, g.executed[j], g.shed[j], g.offered[j])
			}
		}
		if shed > 0 {
			r.fail(shed, "kv-soak rung %d: %d requests shed", i, shed)
		}
		r.units += g.served()
		r.setup += g.setup.Seconds()
		r.wall += g.wall
		r.cpu += g.cpu
		r.heap = append(r.heap, g.heap...)
		name := fmt.Sprint(i)
		if g == out.rerun {
			name = "knee"
		}
		r.info = append(r.info, fmt.Sprintf("%-6s %12.0f %9d %9d %5d %10v %10v %10v %10v %11v %v",
			name, g.rate, offered, g.served(), shed, g.sojourn.Quantile(0.5), g.sojourn.Quantile(0.99),
			g.sojourn.Quantile(0.999), g.maxDelay, span, g.meets(sp)))
	}
	if out.rerun != nil {
		r.info = append(r.info, fmt.Sprintf("kv-soak: knee %.0f req/s/shard on %d shards, goodput %.0f req/s, recovery %v modelled, %d mismatches",
			out.rerun.rate, e.workers, r.simRate, out.rerun.recoverSim, out.rerun.mismatches))
	}
	r.digest = digestOf(digests)
	r.out = out
	return r
}

// runRung builds a fleet of e.workers HOOP shards in hoopd's ring-routed
// configuration, waits for the KV population (set-up), then drives one
// open-loop stream through Submit for the rung's simulated duration and
// drains the fleet (timed). With oracle set, the fleet tracks committed
// writes and the timed phase ends with Crash, Recover and VerifyRecovered
// on every shard instead of a drain.
func runRung(e *env, rate float64, oracle bool, tr *tracer, group string) (*rung, error) {
	sp := e.spec.KV
	shards := e.workers
	g := &rung{rate: rate, window: newCounterAgg()}
	rid := tr.begin("rung", group, 0)
	defer func() { tr.end(rid, map[string]int64{"served": g.served()}) }()

	start := time.Now()
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Threads = 1
	cfg.TrackOracle = oracle
	ring := service.NewRing(shards)
	keys := sp.KeysPerShard * uint64(shards)
	handlers := make([]*service.KVHandler, shards)
	for i := range handlers {
		h, err := service.NewKVHandler(service.KVConfig{Keys: keys, ValBytes: sp.ValueBytes, Ring: &ring})
		if err != nil {
			return nil, err
		}
		handlers[i] = h
	}
	id := tr.begin("service.Open", group, rid)
	openStart := time.Now()
	svc, err := service.Open(service.Config{
		Shards:     shards,
		Seed:       e.seed,
		Engine:     cfg,
		Handler:    func(i int) engine.ShardHandler { return handlers[i] },
		QueueDepth: sp.QueueDepth,
	})
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	g.open = time.Since(openStart)
	id = tr.begin("service.Serve", group, rid)
	svc.Serve()
	svc.Quiesce() // returns once every shard's Setup (the KV population) is done
	tr.end(id, nil)
	g.setup = time.Since(start)
	// Like the harness's measurement boundary: the set-up quiesce's
	// write-back burst must not backlog the window's first requests, and
	// the stream starts on each shard when that shard's quiesce ended (its
	// clock moved past the epoch that arrival times count from). The
	// shards are idle until the next Submit, so this is safe.
	before := make([]engine.RunSnapshot, shards)
	offset := make([]sim.Duration, shards)
	for i := range before {
		sys := svc.Shard(i).System()
		sys.ResetMemoryQueues()
		before[i] = sys.Snapshot()
		offset[i] = svc.StreamSpan(i)
	}

	t := startTimer()
	id = tr.begin("loadgen.NewStream", group, rid)
	st, err := loadgen.NewStream(loadgen.StreamConfig{
		Seed:    e.seed,
		Keys:    keys,
		Rate:    rate * float64(shards),
		Tenants: []loadgen.Tenant{loadgen.TenantReadHeavy},
		Horizon: sp.horizon(),
	})
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	g.offered = make([]int64, shards)
	id = tr.begin("produce", group, rid)
	if tr == nil {
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			g.offered[svc.Submit(req.Arrival+offset[svc.Route(req.Key)], req.Kind, req.Key, req.Aux)]++
		}
	} else {
		for {
			t0 := time.Now()
			req, ok := st.Next()
			t1 := time.Now()
			g.next.observe(int64(t1.Sub(t0)))
			if !ok {
				break
			}
			g.offered[svc.Submit(req.Arrival+offset[svc.Route(req.Key)], req.Kind, req.Key, req.Aux)]++
			g.submit.observe(int64(time.Since(t1)))
		}
	}
	tr.end(id, map[string]int64{"requests": int64(st.Generated())})
	drainStart := time.Now()
	if oracle {
		// Close drains the mailboxes without the quiesce's write-back, so
		// the crash finds un-migrated HOOP state to recover.
		id = tr.begin("service.Close", group, rid)
		svc.Close()
	} else {
		id = tr.begin("service.Quiesce", group, rid)
		svc.Quiesce()
	}
	tr.end(id, nil)
	g.drain = time.Since(drainStart)

	g.sojourn = svc.MergedSojourn()
	for i := 0; i < shards; i++ {
		sh := svc.Shard(i)
		if n := svc.Submitted(i); n != g.offered[i] {
			return nil, fmt.Errorf("shard %d: router counted %d submissions, producer %d", i, n, g.offered[i])
		}
		g.executed = append(g.executed, sh.Executed())
		g.shed = append(g.shed, sh.Shed())
		g.spans = append(g.spans, svc.StreamSpan(i)-offset[i])
		g.maxDelay = max(g.maxDelay, sh.MaxQueueDelay())
		g.window.addWindow(sh.System().Snapshot().Delta(before[i]))
		g.pages = append(g.pages, float64(sh.System().Durable().PagesAllocated()))
	}
	if oracle {
		for i := 0; i < shards; i++ {
			sys := svc.Shard(i).System()
			grp := fmt.Sprintf("%s/shard:%d", group, i)
			id = tr.begin("System.Crash", grp, rid)
			sys.Crash()
			tr.end(id, nil)
			rs := time.Now()
			d, err := sys.Recover(1)
			rd := time.Since(rs)
			tr.record("System.Recover", grp, rid, rs, rd, nil)
			if err != nil {
				return nil, fmt.Errorf("shard %d: recover: %w", i, err)
			}
			g.recoverHost += rd
			g.recoverSim = max(g.recoverSim, d)
			id = tr.begin("System.VerifyRecovered", grp, rid)
			g.mismatches += len(sys.VerifyRecovered(1 << 20))
			tr.end(id, nil)
		}
	}
	g.wall, g.cpu, g.heap = t.stop()
	return g, nil
}

// kvProbe reads the per-layer metrics off the traced repetition: every
// call was already timed there.
func kvProbe(e *env, tr *tracer, r repResult, lm layerMetrics) repResult {
	out := r.out.(*kvOutcome)
	var next, submit hostHist
	var drains, opens []float64
	var shed, served float64
	var cpu time.Duration
	for _, g := range out.ladder {
		next.merge(&g.next)
		submit.merge(&g.submit)
		drains = append(drains, float64(g.drain)/1e6)
		opens = append(opens, float64(g.open)/1e6/float64(len(g.offered)))
		for _, s := range g.shed {
			shed += float64(s)
		}
		served += float64(g.served())
		cpu += g.cpu
	}
	lm["loadgen.ns_per_req"] = next.quantile(0.5)
	lm["service.submit_ns_p50"] = submit.quantile(0.5)
	lm["service.submit_ns_p99"] = submit.quantile(0.99)
	lm["service.drain_ms"] = median(drains)
	lm["engine.new_ms"] = median(opens)
	lm["shard.shed"] = shed
	lm["scheme."+engine.SchemeHOOP+".ns_per_tx"] = ratio(float64(cpu), served)
	if out.knee < 0 {
		return r
	}
	knee := out.ladder[out.knee]
	lm["kv.sim_max_rate"] = knee.rate
	lm["kv.sim_p50_us"] = knee.sojourn.Quantile(0.5).Microseconds()
	lm["kv.sim_p999_us"] = knee.sojourn.Quantile(0.999).Microseconds()
	lm["kv.sojourn_samples"] = float64(knee.sojourn.Count())
	lm["shard.max_qdelay_us"] = knee.maxDelay.Microseconds()
	lm["scheme."+engine.SchemeHOOP+".bytes_per_tx"] = knee.window.bytesPerTx()
	knee.window.setHoop(lm)
	knee.window.setMemory(lm)
	lm["mem.pages"] = median(knee.pages)
	if out.rerun != nil {
		lm["hoop.recover_ms"] = float64(out.rerun.recoverHost) / 1e6 / float64(len(out.rerun.offered))
		lm["hoop.recover_sim_us"] = out.rerun.recoverSim.Microseconds()
	}
	return r
}
