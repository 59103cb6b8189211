package cc

import (
	"runtime"
	"testing"
	"time"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// benchRunner builds an abortable system of the given thread count whose
// threads all run one fixed 4-word read-modify-write body over a shared
// line; Next allocates nothing, so steady-state measurements see only the
// policy's own cost, and with more than one thread every transaction
// conflicts.
func benchRunner(tb testing.TB, policy Policy, threads int) (*Runner, []TxSource) {
	tb.Helper()
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = threads, threads, threads
	cfg.Ctrl.Agents = threads + 2
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(sys, Config{Policy: policy})
	if err != nil {
		tb.Fatal(err)
	}
	body := func(tx Tx) {
		for w := 0; w < 4; w++ {
			a := mem.PAddr(w * mem.WordSize)
			v := tx.ReadWord(a)
			tx.WriteWord(a, v+1)
		}
	}
	srcs := make([]TxSource, threads)
	for i := range srcs {
		srcs[i] = TxSourceFunc(func() TxFunc { return body })
	}
	return r, srcs
}

// perTxAllocs measures steady-state allocations per committed transaction:
// a warmup run grows every reused structure (write buffer, read set,
// validation scratch, lock table, held-lock set) to its steady size, then
// a long measured run amortizes the per-Run overhead (quota slice, one
// goroutine spawn) below 0.05 allocs/tx.
func perTxAllocs(tb testing.TB, policy Policy) float64 {
	r, srcs := benchRunner(tb, policy, 1)
	r.Run(srcs, 200)
	const txs = 1000
	return testing.AllocsPerRun(1, func() { r.Run(srcs, txs) }) / txs
}

// TestOCCValidateAllocBudget locks the OCC commit path's allocation
// budget: validation reuses its scratch key buffer and the write buffer /
// read set are epoch-cleared maps, so a committed transaction stays within
// 1 allocation end to end.
func TestOCCValidateAllocBudget(t *testing.T) {
	if got := perTxAllocs(t, PolicyOCC); got > 1 {
		t.Errorf("OCC: %.3f allocs per committed tx, budget is 1", got)
	}
}

// TestLockTableAllocBudget locks the 2PL steady-state budget at zero:
// lock-table entries are never deleted and the held-lock set is reused, so
// once the table covers the working set, acquire/release allocates nothing.
func TestLockTableAllocBudget(t *testing.T) {
	// The strict-zero budget leaves only the amortized per-Run overhead.
	if got := perTxAllocs(t, Policy2PL); got > 0.05 {
		t.Errorf("2PL: %.3f allocs per committed tx, steady-state budget is 0", got)
	}
}

// BenchmarkCCTx4 measures one committed 4-word read-modify-write
// transaction through the cc layer's step scheduler under each policy —
// the op-granularity yield protocol plus the policy's bookkeeping. With one
// thread every pick selects the yielding thread itself, so no step is
// ever handed to another goroutine; BenchmarkCCTx4Contended (in
// contended_test.go) measures the handoff path.
func BenchmarkCCTx4(b *testing.B) {
	for _, policy := range Policies {
		b.Run(string(policy), func(b *testing.B) {
			r, srcs := benchRunner(b, policy, 1)
			r.Run(srcs, 200) // steady state
			b.ReportAllocs()
			b.ResetTimer()
			r.Run(srcs, b.N)
		})
	}
}

// TestRunLeavesNoGoroutines checks that Run returns only after every
// thread goroutine it started has exited, under both policies with 8
// contending threads.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, policy := range Policies {
		r, srcs := benchRunner(t, policy, 8)
		before := runtime.NumGoroutine()
		r.Run(srcs, 400)
		// Run waits for each goroutine's final WaitGroup.Done; a goroutine
		// may still be returning from that call, so allow it a moment to
		// unwind. A goroutine still parked in the scheduler never will.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines before Run, %d after", policy, before, after)
		}
		if got := r.sys.Snapshot().Txs; got != 400 {
			t.Errorf("%s: %d committed transactions, want 400", policy, got)
		}
	}
}
