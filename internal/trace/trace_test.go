package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

func TestRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ops := []Op{
		{Kind: OpTxBegin, Thread: 0},
		{Kind: OpStore, Thread: 0, Addr: 0x100, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: OpLoad, Thread: 1, Addr: 0x200, Size: 64},
		{Kind: OpTxEnd, Thread: 0},
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(ops)) {
		t.Fatalf("Count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("read %d ops", len(got))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Thread != ops[i].Thread ||
			got[i].Addr != ops[i].Addr || got[i].Size != ops[i].Size {
			t.Fatalf("op %d mismatch: %v vs %v", i, got[i], ops[i])
		}
		if !bytes.Equal(got[i].Data, ops[i].Data) {
			t.Fatalf("op %d data mismatch", i)
		}
		if got[i].String() == "" {
			t.Fatal("String")
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nonsense"))).Read(); err == nil {
		t.Fatal("bad magic must fail")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Flush() // header only
	if _, err := NewReader(&buf).Read(); err != io.EOF {
		t.Fatalf("empty trace must EOF, got %v", err)
	}
	if err := NewWriter(io.Discard).Write(Op{Kind: OpStore, Size: 8, Data: []byte{1}}); err == nil {
		t.Fatal("mismatched store size must fail")
	}
}

func traceSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.TrackOracle = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRecordReplayEquivalence records a run on one system, replays the
// trace on a fresh system with a different scheme, and checks the durable
// outcome matches after crash+recovery.
func TestRecordReplayEquivalence(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	src := traceSystem(t, engine.SchemeHOOP)
	src.Subscribe(rec, RecordMask)
	envs := []*engine.Env{src.NewEnv(0), src.NewEnv(1)}
	r := sim.NewRand(13)
	for i := 0; i < 100; i++ {
		env := envs[i%2]
		env.TxBegin()
		for j := 0; j < 1+r.Intn(5); j++ {
			env.WriteWord(mem.PAddr(r.Intn(512))*8, r.Uint64())
		}
		env.ReadWord(mem.PAddr(r.Intn(512)) * 8)
		env.TxEnd()
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("nothing recorded")
	}

	// Replay onto Opt-Undo and verify its recovered state matches the
	// original system's committed oracle.
	dst := traceSystem(t, engine.SchemeUndo)
	txs, err := Replay(dst, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if txs != 100 {
		t.Fatalf("replayed %d txs", txs)
	}
	dst.Crash()
	if _, err := dst.Recover(2); err != nil {
		t.Fatal(err)
	}
	if mm := dst.VerifyRecovered(3); len(mm) != 0 {
		t.Fatalf("replayed system diverged: %+v", mm)
	}
	// Cross-check against the source oracle: same committed bytes.
	src.Crash()
	if _, err := src.Recover(2); err != nil {
		t.Fatal(err)
	}
	srcHome := src.Durable()
	dstHome := dst.Durable()
	for a := mem.PAddr(0); a < 512*8; a += 8 {
		if srcHome.ReadWord(a) != dstHome.ReadWord(a) {
			t.Fatalf("source and replay diverge at %v", a)
		}
	}
}

func TestReplayThreadBoundsChecked(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Op{Kind: OpTxBegin, Thread: 9})
	w.Flush()
	sys := traceSystem(t, engine.SchemeNative)
	if _, err := Replay(sys, &buf); err == nil {
		t.Fatal("out-of-range thread must fail")
	}
}

func TestAbortAndWideThreadRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ops := []Op{
		{Kind: OpTxBegin, Thread: 300},
		{Kind: OpStore, Thread: 300, Addr: 0x40, Size: 8, Data: []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		{Kind: OpTxAbort, Thread: 300},
		{Kind: OpTxBegin, Thread: 65535},
		{Kind: OpTxEnd, Thread: 65535},
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("read %d ops", len(got))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Thread != ops[i].Thread {
			t.Fatalf("op %d: got %v want %v", i, got[i], ops[i])
		}
	}
	if got[2].String() != "t300 TX_ABORT" {
		t.Fatalf("abort String = %q", got[2].String())
	}
}

// TestReaderRejectsPreV4 holds the retired formats to a clear error: a
// v1, v2 or v3 trace (even one carrying ops those formats could hold) must
// fail on its header and ask for a re-recording.
func TestReaderRejectsPreV4(t *testing.T) {
	for _, ver := range []uint32{1, 2, 3} {
		raw := binary.LittleEndian.AppendUint32(nil, magic)
		raw = binary.LittleEndian.AppendUint32(raw, ver)
		raw = append(raw, OpTxBegin, 0, 0) // the start of a v1/v2 op header or a v3 chunk
		_, err := NewReader(bytes.NewReader(raw)).ReadAll()
		if err == nil || !strings.Contains(err.Error(), "re-record it with the current hooptrace") {
			t.Errorf("v%d trace must be rejected with a re-record error, got %v", ver, err)
		}
	}
}

// TestReaderRejectsV1Abort feeds a complete v1 trace whose body carries an
// abort op (which v1 could never express): it must still fail on its header,
// before any op is decoded.
func TestReaderRejectsV1Abort(t *testing.T) {
	raw := binary.LittleEndian.AppendUint32(nil, magic)
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	for _, kind := range []uint8{OpTxBegin, OpTxAbort} {
		var oh [14]byte // v1 op header: kind u8, thread u8, addr u64le, size u32le
		oh[0] = kind
		raw = append(raw, oh[:]...)
	}
	ops, err := NewReader(bytes.NewReader(raw)).ReadAll()
	if err == nil || !strings.Contains(err.Error(), "re-record it with the current hooptrace") {
		t.Fatalf("v1 trace with abort op must be rejected with a re-record error, got %v", err)
	}
	if len(ops) != 0 {
		t.Fatalf("rejected v1 trace decoded %d ops", len(ops))
	}
}

// failAfter errors once more than n bytes have been written.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestRecorderErrorIsSticky(t *testing.T) {
	rec := NewRecorder(&failAfter{n: 16})
	// Varied payloads defeat the compressor, so encoded bytes reach the
	// failing writer well before 8192 events.
	for i := 0; i < 8192; i++ {
		data := make([]byte, 64)
		for w := 0; w < 8; w++ {
			binary.LittleEndian.PutUint64(data[w*8:], (uint64(i)*8+uint64(w)+1)*0x9E3779B97F4A7C15)
		}
		rec.Emit(telemetry.Event{Kind: telemetry.KindStore, Core: 0, Addr: 8, Data: data})
	}
	if rec.Err() == nil {
		t.Fatal("writer failure must surface from Err")
	}
	if err := rec.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush must report the sticky error, got %v", err)
	}
	n := rec.Count()
	rec.Emit(telemetry.Event{Kind: telemetry.KindTxCommit, Core: 0})
	if rec.Count() != n {
		t.Fatal("events after a sticky error must be dropped, not recorded")
	}
}

func TestRecorderRejectsNegativeCore(t *testing.T) {
	rec := NewRecorder(io.Discard)
	rec.Emit(telemetry.Event{Kind: telemetry.KindTxBegin, Core: -1})
	if err := rec.Flush(); err == nil || !strings.Contains(err.Error(), "thread field") {
		t.Fatalf("negative core must fail recording, got %v", err)
	}
}

// TestRecordReplayAbortEquivalence records an abort-carrying run and
// replays it on a different scheme: aborted transactions must stay
// invisible and committed state must match word for word.
func TestRecordReplayAbortEquivalence(t *testing.T) {
	abortSys := func(scheme string) *engine.System {
		cfg := engine.DefaultConfig(scheme)
		cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
		cfg.Ctrl.Agents = 4
		cfg.NVM.Capacity = 1 << 30
		cfg.OOPBytes = 64 << 20
		cfg.Hoop.CommitLogBytes = 1 << 20
		cfg.Abortable = true
		sys, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	src := abortSys(engine.SchemeHOOP)
	src.Subscribe(rec, RecordMask)
	envs := []*engine.Env{src.NewEnv(0), src.NewEnv(1)}
	r := sim.NewRand(29)
	commits, aborts := 0, 0
	for i := 0; i < 120; i++ {
		env := envs[i%2]
		env.TxBegin()
		for j := 0; j < 1+r.Intn(4); j++ {
			env.WriteWord(mem.PAddr(r.Intn(256))*8, r.Uint64())
		}
		if i%5 == 3 {
			env.TxAbort()
			aborts++
		} else {
			env.TxEnd()
			commits++
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	dst := abortSys(engine.SchemeUndo)
	txs, err := Replay(dst, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if txs != int64(commits) {
		t.Fatalf("replayed %d committed txs, want %d", txs, commits)
	}
	snap := dst.Snapshot()
	if snap.Aborts != int64(aborts) {
		t.Fatalf("replay saw %d aborts, want %d", snap.Aborts, aborts)
	}
	src.Crash()
	if _, err := src.Recover(2); err != nil {
		t.Fatal(err)
	}
	dst.Crash()
	if _, err := dst.Recover(2); err != nil {
		t.Fatal(err)
	}
	srcHome, dstHome := src.Durable(), dst.Durable()
	for a := mem.PAddr(0); a < 256*8; a += 8 {
		if srcHome.ReadWord(a) != dstHome.ReadWord(a) {
			t.Fatalf("source and replay diverge at %v", a)
		}
	}
}
