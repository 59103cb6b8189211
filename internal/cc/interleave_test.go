package cc_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/cc/cctest"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// historyHash folds a recorded History into one 64-bit FNV-1a digest:
// every committed transaction's thread, attempt and ops in commit order,
// then the abort count.
func historyHash(h *cc.History) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		f.Write(buf[:])
	}
	for _, c := range h.Commits {
		put(uint64(c.Thread))
		put(uint64(c.Attempt))
		put(uint64(len(c.Ops)))
		for _, op := range c.Ops {
			put(uint64(op.Kind))
			put(uint64(op.Addr))
			put(op.Val)
		}
	}
	put(uint64(h.Aborts))
	return f.Sum64()
}

// TestInterleavingPinned pins the scheduler's interleaving itself: a fixed
// 8-thread Zipfian contention workload (theta 0.9) under each policy must
// record exactly the same History — which thread committed which attempt
// in which order, with which values, and how many attempts aborted — as
// the reference digests. Any change to which thread a pick selects, or
// when, moves the digest.
func TestInterleavingPinned(t *testing.T) {
	want := map[cc.Policy]uint64{
		cc.PolicyOCC:               0x67985655f6f8be16,
		cc.Policy2PL:               0x52af1e5a538d6698,
		cc.PolicyBrokenNoReadLocks: 0xed0767e048f3fd5e,
	}
	const threads = 8
	for _, policy := range []cc.Policy{cc.PolicyOCC, cc.Policy2PL, cc.PolicyBrokenNoReadLocks} {
		sys, err := cctest.NewSystem(engine.SchemeHOOP, threads)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cc.New(sys, cc.Config{Policy: policy, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		srcs := workload.Contention{Keys: 64, OpsPerTx: 4, Theta: 0.9}.Sources(threads, 7)
		r.Run(srcs, 400)
		h := r.History()
		if len(h.Commits) != 400 || h.Aborts == 0 {
			t.Fatalf("%s: %d commits, %d aborts; want 400 commits and some aborts", policy, len(h.Commits), h.Aborts)
		}
		if got := historyHash(h); got != want[policy] {
			t.Errorf("%s: history digest %#x, want %#x (%d aborts)", policy, got, want[policy], h.Aborts)
		}
	}
}
