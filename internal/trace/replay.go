package trace

import (
	"fmt"
	"io"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/telemetry"
)

// RecordMask is the telemetry subscription a Recorder needs: the per-op
// kinds it converts into binary trace Ops. Subscribe the recorder with
// sys.Subscribe(rec, trace.RecordMask).
var RecordMask = telemetry.MaskOf(telemetry.KindTxBegin, telemetry.KindTxCommit,
	telemetry.KindTxAbort, telemetry.KindLoad, telemetry.KindStore, telemetry.KindScan)

// Recorder tees a workload's operations into a trace while they execute.
// It is a telemetry.Sink: subscribe it to a system's hub with RecordMask,
// run the workload, then Flush. The engine executes on one goroutine and
// emits exactly one event per operation in issue order, so the captured
// trace is the operation stream.
//
// A write failure (or an event the format cannot represent) makes the
// recorder's error sticky: further events are dropped and the error
// surfaces from Flush and Err. Emit cannot return an error — it is a
// telemetry.Sink — and panicking from inside the engine's emit path would
// kill the whole worker, so sticky-and-surface is the contract.
type Recorder struct {
	w   *Writer
	err error
}

// NewRecorder builds a recorder over w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: NewWriter(w)}
}

// Flush drains the underlying trace writer, reporting any error that
// occurred while recording.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Err reports the sticky recording error, if any.
func (r *Recorder) Err() error { return r.err }

// Count reports recorded ops.
func (r *Recorder) Count() int64 { return r.w.Count() }

// Emit implements telemetry.Sink: per-op events become trace Ops, all
// other kinds are ignored. A store op's Data aliases e.Data, which is only
// valid for the duration of Emit; the writer copies what it keeps.
func (r *Recorder) Emit(e telemetry.Event) {
	if r.err != nil {
		return
	}
	if e.Core < 0 || int64(e.Core) > 0xFFFF {
		// The format's thread field is uint16; wrapping would route ops
		// to the wrong replay env, so fail the recording instead.
		r.err = fmt.Errorf("trace: core %d does not fit the format's uint16 thread field", e.Core)
		return
	}
	op := Op{Thread: uint16(e.Core)}
	switch e.Kind {
	case telemetry.KindTxBegin:
		op.Kind = OpTxBegin
	case telemetry.KindTxCommit:
		op.Kind = OpTxEnd
	case telemetry.KindTxAbort:
		op.Kind = OpTxAbort
	case telemetry.KindLoad:
		op.Kind, op.Addr, op.Size = OpLoad, e.Addr, uint32(e.Bytes)
	case telemetry.KindStore:
		op.Kind, op.Addr, op.Size, op.Data = OpStore, e.Addr, uint32(len(e.Data)), e.Data
	case telemetry.KindScan:
		// Scan ops reuse the header fields for accounting: Size is the
		// item count (Aux), Addr the value bytes the scan read (Bytes).
		op.Kind, op.Addr, op.Size = OpScan, mem.PAddr(e.Bytes), uint32(e.Aux)
	default:
		return
	}
	if err := r.w.Write(op); err != nil {
		r.err = fmt.Errorf("trace: recording failed: %w", err)
	}
}

var _ telemetry.Sink = (*Recorder)(nil)

// applyOp issues one recorded op against env. buf is a scratch buffer for
// load destinations, grown as needed and returned for reuse.
func applyOp(env *engine.Env, op Op, buf []byte) ([]byte, error) {
	switch op.Kind {
	case OpTxBegin:
		env.TxBegin()
	case OpTxEnd:
		env.TxEnd()
	case OpTxAbort:
		env.TxAbort()
	case OpLoad:
		if cap(buf) < int(op.Size) {
			buf = make([]byte, op.Size)
		}
		env.Read(op.Addr, buf[:op.Size])
	case OpStore:
		env.Write(op.Addr, op.Data)
	case OpScan:
		env.NoteScan(int(op.Size), int(op.Addr))
	default:
		return buf, fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
	return buf, nil
}

type replayer struct {
	envs []*engine.Env
	buf  []byte
	txs  int64
}

func newReplayer(sys *engine.System) *replayer {
	envs := make([]*engine.Env, sys.Config().Threads)
	for i := range envs {
		envs[i] = sys.NewEnv(i)
	}
	return &replayer{envs: envs, buf: make([]byte, 0, 1024)}
}

func (rp *replayer) apply(op Op) error {
	if int(op.Thread) >= len(rp.envs) {
		return fmt.Errorf("trace: op for thread %d but system has %d threads", op.Thread, len(rp.envs))
	}
	var err error
	rp.buf, err = applyOp(rp.envs[op.Thread], op, rp.buf)
	if op.Kind == OpTxEnd {
		rp.txs++
	}
	return err
}

// Replay drives a recorded trace against a fresh system: every thread's
// operations execute in recorded order (interleaved exactly as captured),
// through whatever persistence scheme sys is configured with. It returns
// the number of committed transactions replayed. Replaying a trace that
// carries aborts requires a system built with Config.Abortable.
func Replay(sys *engine.System, r io.Reader) (int64, error) {
	tr := NewReader(r)
	rp := newReplayer(sys)
	for {
		op, err := tr.Read()
		if err == io.EOF {
			return rp.txs, nil
		}
		if err != nil {
			return rp.txs, err
		}
		if err := rp.apply(op); err != nil {
			return rp.txs, err
		}
	}
}
