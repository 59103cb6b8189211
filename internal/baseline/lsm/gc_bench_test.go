package lsm

import (
	"testing"

	"hoop/internal/mem"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

// GC benchmark batch: commits of one 1 KB item each, over fewer item slots
// than commits, so a pass both coalesces repeated words and migrates.
const (
	gcBenchCommits = 64
	gcBenchItems   = 16
	gcBenchItem    = 1024
)

// BenchmarkGCPass measures one log GC pass over a fixed batch of committed
// transactions. The commits run with the timer stopped, so ns/op and
// allocs/op cover the pass alone: the newest-first log scan, coalescing,
// home migration and the index reset.
func BenchmarkGCPass(b *testing.B) {
	ctx := persisttest.NewContext(1)
	s, err := New(ctx, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var item [gcBenchItem]byte
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for c := 0; c < gcBenchCommits; c++ {
			tx, t := s.TxBegin(0, now)
			item[0], item[gcBenchItem-1] = byte(c), byte(i)
			t = s.Store(0, tx, mem.PAddr(c%gcBenchItems*gcBenchItem), item[:], t)
			now = s.TxEnd(0, tx, t)
		}
		b.StartTimer()
		s.ForceGC(now)
	}
}
