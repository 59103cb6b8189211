package cc

import (
	"runtime"
	"strings"
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
// coroutine per thread) below 0.05 allocs/tx.
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
// thread every pick selects the yielding thread itself, so no step ever
// moves to another coroutine; BenchmarkCCTx4Contended (in
// contended_test.go) measures the coroutine switch path.
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

// waitGoroutines returns the goroutine count once it is back to before,
// or after a second. A finished coroutine's goroutine exits as it switches
// back to Run; the grace covers one still being torn down. A coroutine
// still suspended at a yield point never exits.
func waitGoroutines(before int) int {
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	return after
}

// TestRunLeavesNoGoroutines checks that Run returns only after every
// thread coroutine it started has finished, under both policies with 8
// contending threads (each iter.Pull coroutine is a goroutine until its
// body returns).
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, policy := range Policies {
		r, srcs := benchRunner(t, policy, 8)
		before := runtime.NumGoroutine()
		r.Run(srcs, 400)
		if after := waitGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before Run, %d after", policy, before, after)
		}
		if got := r.sys.Snapshot().Txs; got != 400 {
			t.Errorf("%s: %d committed transactions, want 400", policy, got)
		}
	}
}

// runPanic runs r and returns the value Run panicked with (nil if none).
func runPanic(r *Runner, srcs []TxSource, txs int) (v any) {
	defer func() { v = recover() }()
	r.Run(srcs, txs)
	return nil
}

// TestRunPanicReachesCaller checks that a panic inside a thread — a body's
// own, or the MaxRetries livelock guard — panics out of Run with the same
// value, and that Run stops every other thread's coroutine on the way out
// (they are suspended mid-transaction, holding locks and write buffers).
func TestRunPanicReachesCaller(t *testing.T) {
	type sentinel struct{ n int }
	for _, policy := range Policies {
		r, srcs := benchRunner(t, policy, 8)
		boom := &sentinel{n: 42}
		drawn, inner := 0, srcs[5]
		srcs[5] = TxSourceFunc(func() TxFunc {
			if drawn++; drawn < 20 {
				return inner.Next()
			}
			return func(tx Tx) {
				tx.ReadWord(0)
				panic(boom)
			}
		})
		before := runtime.NumGoroutine()
		if got := runPanic(r, srcs, 400); got != any(boom) {
			t.Fatalf("%s: Run panicked with %v, want the body's sentinel %v", policy, got, boom)
		}
		if after := waitGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before Run, %d after its panic", policy, before, after)
		}
	}

	r, srcs := benchRunner(t, PolicyOCC, 8)
	r.cfg.MaxRetries = 1
	before := runtime.NumGoroutine()
	if got, _ := runPanic(r, srcs, 400).(string); !strings.Contains(got, "exceeded 1 retries") {
		t.Fatalf("Run panicked with %q, want the MaxRetries livelock guard", got)
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("MaxRetries: %d goroutines before Run, %d after its panic", before, after)
	}
}
