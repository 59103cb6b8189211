package cc_test

import (
	"testing"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// BenchmarkCCTx4Contended measures one committed transaction of 4
// read-modify-write pairs with 8 threads contending on a shared 256-word
// Zipfian pool (theta 0.9, the contention figure's middle skew). Unlike
// BenchmarkCCTx4, steps move between thread coroutines, and aborts and
// lock waits happen, so this is the cost of the scheduler's switch path.
func BenchmarkCCTx4Contended(b *testing.B) {
	const threads = 8
	for _, policy := range cc.Policies {
		b.Run(string(policy), func(b *testing.B) {
			cfg := engine.DefaultConfig(engine.SchemeNative)
			cfg.Cores, cfg.Threads, cfg.Cache.Cores = threads, threads, threads
			cfg.Ctrl.Agents = threads + 2
			cfg.Abortable = true
			sys, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := cc.New(sys, cc.Config{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			srcs := workload.Contention{Keys: 256, OpsPerTx: 4, Theta: 0.9}.Sources(threads, 1)
			r.Run(srcs, 2000) // steady state
			b.ReportAllocs()
			b.ResetTimer()
			r.Run(srcs, b.N)
		})
	}
}
