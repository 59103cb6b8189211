package lsm

import (
	"encoding/binary"
	"maps"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

// fullScanAbort is the reference abort: the same unwind as TxAbort, but
// scanning the whole volatile log from record 0 instead of from the
// transaction's first possible record.
func fullScanAbort(s *Scheme, tx persist.TxID, now sim.Time) sim.Time {
	var hops, words int
	for i := range s.records {
		r := &s.records[i]
		if r.tx != tx || r.addr == commitSentinel {
			continue
		}
		for off := 0; off < r.n; off += mem.WordSize {
			w := r.addr + mem.PAddr(off)
			if _, h := s.index.Delete(uint64(w)); h > hops {
				hops = h
			}
			words++
			p := s.lineWords.Ref(mem.LineIndex(w))
			*p--
			if *p <= 0 {
				s.lineWords.Delete(mem.LineIndex(w))
			}
		}
	}
	s.liveTx.Delete(uint64(tx))
	if words > 0 {
		now += sim.Duration(words)*indexInsertBase + sim.Duration(hops)*indexHopCost
	}
	return now
}

func indexContents(s *Scheme) map[uint64]uint64 {
	out := map[uint64]uint64{}
	s.index.Range(0, ^uint64(0), func(k, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}

func lineWordsContents(s *Scheme) map[uint64]int32 {
	out := map[uint64]int32{}
	s.lineWords.Range(func(k uint64, v *int32) bool {
		out[k] = *v
		return true
	})
	return out
}

// TestTxAbortMatchesFullScan drives the same interleaved transaction
// stream from 8 cores into two schemes: one aborts through TxAbort, the
// other through the full-log-scan reference. A transaction on core 0 stays
// open for the whole phase, so periodic GC ticks defer and the log keeps
// growing — the case where the scan start matters. Every abort's return
// time, and the index and per-line word counts after it, must match. A
// crash and recovery in the middle restarts the log under a new epoch.
func TestTxAbortMatchesFullScan(t *testing.T) {
	const (
		cores = 8
		pool  = 96 // words: 12 lines, so transactions collide
		steps = 4000
	)
	got, err := New(persisttest.NewContext(cores), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(persisttest.NewContext(cores), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(0x15A)
	var now sim.Time
	var open [cores]persist.TxID // 0 = no open transaction
	var aborts, lateAborts int

	begin := func(core int) {
		tx, _ := got.TxBegin(core, now)
		if rtx, _ := ref.TxBegin(core, now); rtx != tx {
			t.Fatalf("tx ids diverged: %d vs %d", tx, rtx)
		}
		open[core] = tx
	}
	store := func(core int) {
		words := 1 + rng.Intn(2)
		addr := mem.PAddr(rng.Intn(pool-words+1) * mem.WordSize)
		val := make([]byte, words*mem.WordSize)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(val[i*mem.WordSize:], rng.Uint64())
		}
		a := got.Store(core, open[core], addr, val, now)
		if b := ref.Store(core, open[core], addr, val, now); a != b {
			t.Fatalf("Store times diverged: %v vs %v", a, b)
		}
		now = a
	}

	for phase := 0; phase < 2; phase++ {
		start := now
		// Pin the log: core 0's transaction stays live for the phase.
		begin(0)
		store(0)
		for step := 0; step < steps; step++ {
			core := 1 + rng.Intn(cores-1)
			switch {
			case open[core] == 0:
				begin(core)
			case rng.Bool(0.6):
				store(core)
			case rng.Bool(0.5):
				a := got.TxEnd(core, open[core], now)
				if b := ref.TxEnd(core, open[core], now); a != b {
					t.Fatalf("TxEnd times diverged: %v vs %v", a, b)
				}
				now = a
				open[core] = 0
			default:
				if lt, _ := got.liveTx.Get(uint64(open[core])); lt.first > 0 {
					lateAborts++
				}
				a := got.TxAbort(core, open[core], now)
				if b := fullScanAbort(ref, open[core], now); a != b {
					t.Fatalf("phase %d step %d: TxAbort returned %v, full scan %v", phase, step, a, b)
				}
				if g, r := indexContents(got), indexContents(ref); !maps.Equal(g, r) {
					t.Fatalf("phase %d step %d: index diverged after abort (%d vs %d entries)", phase, step, len(g), len(r))
				}
				if g, r := lineWordsContents(got), lineWordsContents(ref); !maps.Equal(g, r) {
					t.Fatalf("phase %d step %d: lineWords diverged after abort: %v vs %v", phase, step, g, r)
				}
				aborts++
				open[core] = 0
			}
			now += 5 * sim.Microsecond
			if step%100 == 0 {
				got.Tick(now)
				ref.Tick(now)
			}
		}
		if span := sim.Duration(now - start); span < 2*DefaultConfig().GCPeriod {
			t.Fatalf("phase %d spans %v, too short to cross two GC periods", phase, span)
		}
		if len(got.records) < steps/4 {
			t.Fatalf("phase %d: only %d log records; GC must defer while core 0's tx is live", phase, len(got.records))
		}
		if phase == 0 {
			got.Crash()
			ref.Crash()
			dg, err := got.Recover(cores)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := ref.Recover(cores)
			if err != nil {
				t.Fatal(err)
			}
			if dg != dr {
				t.Fatalf("recovery durations diverged: %v vs %v", dg, dr)
			}
			open = [cores]persist.TxID{}
		}
	}
	if aborts < 200 || lateAborts < aborts/2 {
		t.Fatalf("only %d aborts (%d past record 0); the stream must exercise the abort path", aborts, lateAborts)
	}
}
