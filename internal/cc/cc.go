// Package cc is the optional concurrency-control layer above the persist
// schemes: it lets the engine's per-core threads issue *conflicting*
// transactions and resolves the conflicts with one of two interchangeable
// policies — optimistic concurrency control (validation at commit) or
// per-line two-phase locking with wound-wait deadlock avoidance. Aborted
// attempts flow through Env.TxAbort and each scheme's abort path, which is
// exactly what the contention figures measure: HOOP's out-of-place
// buffering makes an abort free (the un-committed OOP slices simply become
// garbage), while undo logging must restore old images in the foreground
// before its locks can release.
//
// Execution model: engine.System.Run interleaves whole transactions, which
// can never conflict. The cc.Runner instead interleaves at *operation*
// granularity: each thread's transaction body is an iter.Pull coroutine,
// and at every yield point (begin, each ReadWord/WriteWord, commit, a
// blocked lock request, finishing its quota) the yielding thread picks the
// next thread to step: the runnable thread with the smallest simulated
// clock (ties to the lowest thread id). If it picks itself it carries on;
// otherwise it records the pick as the grant and suspends, and Run's one
// scheduler loop resumes the granted coroutine — a switch out and a switch
// in, with no channel and no trip through the Go scheduler. The pick runs at
// exactly these points over the same state, so the interleaving is a pure
// function of the inputs. Exactly one coroutine ever runs, so the
// interleaving is deterministic, race-free, and reproducible bit-for-bit —
// yet transactions are genuinely concurrent in simulated time, so a lock
// request can find its line held by a suspended transaction and wound-wait
// has someone to wound.
package cc

import (
	"fmt"
	"iter"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// Policy names a concurrency-control algorithm.
type Policy string

const (
	// PolicyOCC is optimistic concurrency control: reads record per-line
	// versions, writes buffer privately, and commit validates the read set
	// and installs the write buffer as one atomic step. Aborts never
	// install anything, so they are cheap under every scheme.
	PolicyOCC Policy = "occ"
	// Policy2PL is per-line two-phase locking with wound-wait: writes are
	// eager (they reach the scheme before commit), so an abort must undo
	// durable work — the policy under which the schemes' abort paths
	// differentiate.
	Policy2PL Policy = "2pl"
	// PolicyBrokenNoReadLocks is the deliberately-unsound negative
	// control: two-phase locking that takes no read locks, admitting
	// non-serializable interleavings the cctest oracle must reject. Never
	// use it for measurements; it exists so the serializability harness
	// can prove it has teeth.
	PolicyBrokenNoReadLocks Policy = "broken-no-read-locks"
)

// Policies lists the sound policies in figure order.
var Policies = []Policy{PolicyOCC, Policy2PL}

// Tx is the operation surface a transaction body runs against. Bodies must
// be deterministic functions of their inputs: an aborted body re-executes
// from scratch on retry.
type Tx interface {
	ReadWord(addr mem.PAddr) uint64
	WriteWord(addr mem.PAddr, v uint64)
}

// TxFunc is one transaction body.
type TxFunc func(tx Tx)

// TxSource produces the transaction bodies of one thread. Next is called
// once per *committed* transaction; the returned body may execute several
// times (abort → retry), so any randomness must be drawn inside Next and
// captured by the closure, never inside the body.
type TxSource interface {
	Next() TxFunc
}

// TxSourceFunc adapts a function to TxSource.
type TxSourceFunc func() TxFunc

// Next implements TxSource.
func (f TxSourceFunc) Next() TxFunc { return f() }

// Config configures a Runner.
type Config struct {
	Policy Policy
	// Record retains every committed transaction's reads and writes (and
	// the abort count) in a History for the serializability oracle. Off
	// for measurement runs — recording allocates.
	Record bool
	// MaxRetries bounds the abort→retry loop of a single transaction
	// (safety net against livelock bugs; wound-wait should never need it).
	// Zero means the default of 10000.
	MaxRetries int
}

// Runner drives conflicting transactions over one engine.System.
type Runner struct {
	sys     *engine.System
	cfg     Config
	policy  policy
	threads []*thread

	// Run steps grant, the thread the last yield picked, until live (the
	// threads that have not finished their quota) reaches zero.
	live  int
	grant *thread
	// lockEpoch increments whenever any lock is released (or a holder is
	// wounded); blocked threads only become runnable again when the epoch
	// has moved past the one they blocked under, so a failed re-check
	// cannot spin.
	lockEpoch uint64

	prioSeq uint64 // first-begin timestamps for wound-wait priorities

	history History
}

// thread run states (thread.status).
const (
	statusReady    = iota // suspended at a yield point, runnable
	statusBlocked         // waiting on a lock
	statusFinished        // quota done, coroutine returned
)

type thread struct {
	r   *Runner
	id  int
	env *engine.Env

	// The thread's coroutine: Run resumes it with next and ends it with
	// stop; suspend (its yield func) reports false once stopped.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool
	status  int
	// blockEpoch is the lockEpoch observed when the thread blocked.
	blockEpoch uint64
	blockLine  uint64

	// Wound-wait state: prio is the first-begin timestamp (kept across
	// retries so a repeatedly-wounded transaction ages into the oldest and
	// must eventually win); wounded is set by an older conflicting
	// requester and consumed at the next yield point.
	prio       uint64
	wounded    bool
	committing bool
	inTx       bool

	// Per-policy transaction state (epoch-cleared per attempt).
	occ  occState
	lock lockTxState

	// Recording buffer (reused across attempts; copied on commit).
	ops     []Op
	attempt int
}

// abortSignal unwinds a wounded or validation-failed transaction body.
type abortSignal struct{}

// stopSignal unwinds a suspended thread that Run stops; seq recovers it.
type stopSignal struct{}

// New builds a Runner over sys. The system must have been built with
// engine.Config.Abortable (the rollback arena TxAbort needs).
func New(sys *engine.System, cfg Config) (*Runner, error) {
	n := sys.Config().Threads
	if n > 64 {
		return nil, fmt.Errorf("cc: at most 64 threads (lock table uses a holder bitmask), got %d", n)
	}
	if !sys.Config().Abortable {
		return nil, fmt.Errorf("cc: engine.Config.Abortable must be set (TxAbort needs the rollback arena)")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10000
	}
	r := &Runner{sys: sys, cfg: cfg}
	switch cfg.Policy {
	case PolicyOCC:
		r.policy = newOCCPolicy(r)
	case Policy2PL:
		r.policy = newLockPolicy(r, true)
	case PolicyBrokenNoReadLocks:
		r.policy = newLockPolicy(r, false)
	default:
		return nil, fmt.Errorf("cc: unknown policy %q", cfg.Policy)
	}
	r.threads = make([]*thread, n)
	for i := range r.threads {
		r.threads[i] = &thread{r: r, id: i, env: sys.NewEnv(i)}
	}
	return r, nil
}

// History returns the recorded history (Config.Record). The slice is owned
// by the Runner; read it only after Run returns.
func (r *Runner) History() *History { return &r.history }

// policy is the internal algorithm surface. All methods run on the
// granted thread's coroutine; none may yield except through t.acquire
// helpers that the policy itself owns.
type policy interface {
	// begin opens the engine transaction and resets per-attempt state.
	begin(t *thread)
	read(t *thread, addr mem.PAddr) uint64
	write(t *thread, addr mem.PAddr, v uint64)
	// commit attempts to commit; false means validation failed and the
	// caller must abort the attempt. On true the engine transaction is
	// durable and all policy state is released.
	commit(t *thread) bool
	// abort tears down policy state after an abort decision. The engine
	// transaction is still open; abort must close it via env.TxAbort and
	// only then release conflict state (locks release at post-abort time,
	// so expensive scheme rollbacks hold their lines longer — the effect
	// the contention figures measure).
	abort(t *thread)
}

// Run executes totalTxs committed transactions spread round-robin over the
// sources (one per thread, like engine.System.Run). It returns when every
// thread has committed its share; aborted attempts retry until they
// commit, so the committed-transaction count is exact. A thread's panic
// or a stuck scheduler panics out of Run once every coroutine is stopped.
func (r *Runner) Run(sources []TxSource, totalTxs int) {
	n := len(r.threads)
	if len(sources) != n {
		panic(fmt.Sprintf("cc: %d sources for %d threads", len(sources), n))
	}
	quota := make([]int, n)
	for i := 0; i < totalTxs; i++ {
		quota[i%n]++
	}
	r.live = 0
	defer func() {
		for _, t := range r.threads {
			if t.stop != nil {
				t.stop() // a no-op once the coroutine has returned
			}
		}
	}()
	for i, t := range r.threads {
		t.status, t.wounded, t.committing, t.inTx = statusReady, false, false, false
		if quota[i] == 0 {
			t.status = statusFinished
			continue
		}
		r.live++
		t.next, t.stop = iter.Pull(t.seq(sources[i], quota[i]))
	}
	for t := r.pick(); r.live > 0; t = r.grant {
		if t == nil {
			panic("cc: no runnable thread (lock scheduler stuck — wound-wait must prevent deadlock)")
		}
		t.next()
	}
}

// pick selects the next thread to step: the smallest-clock thread that is
// ready, or blocked-but-wakeable (the lock epoch moved, or it was wounded).
func (r *Runner) pick() *thread {
	var best *thread
	for _, t := range r.threads {
		switch t.status {
		case statusReady:
		case statusBlocked:
			if !t.wounded && t.blockEpoch == r.lockEpoch {
				continue
			}
		default:
			continue
		}
		if best == nil || r.sys.Clock(t.id) < r.sys.Clock(best.id) {
			best = t
		}
	}
	return best
}

// seq is one thread's coroutine body: commit quota transactions, retrying
// aborted attempts with the same body, then pick the thread to step next.
// A stopSignal (Run stopping a suspended thread) ends it quietly.
func (t *thread) seq(src TxSource, quota int) iter.Seq[struct{}] {
	return func(suspend func(struct{}) bool) {
		t.suspend = suspend
		defer func() {
			if e := recover(); e != nil && e != any(stopSignal{}) {
				panic(e)
			}
		}()
		for done := 0; done < quota; done++ {
			t.runToCommit(src.Next())
		}
		t.status = statusFinished
		t.r.live--
		t.r.grant = t.r.pick()
	}
}

// runToCommit executes body until one attempt commits.
func (t *thread) runToCommit(body TxFunc) {
	for t.attempt = 0; ; t.attempt++ {
		if t.attempt > t.r.cfg.MaxRetries {
			panic(fmt.Sprintf("cc: thread %d exceeded %d retries (livelock?)", t.id, t.r.cfg.MaxRetries))
		}
		if t.tryOnce(body) {
			return
		}
	}
}

// tryOnce is one attempt: begin, body, commit. It reports whether the
// attempt committed; a wound or validation failure aborts the engine
// transaction and returns false.
func (t *thread) tryOnce(body TxFunc) (committed bool) {
	t.yield(statusReady) // the begin step
	if t.attempt == 0 {
		// A fresh transaction draws a new wound-wait priority; retries
		// keep the old one, so a repeatedly-wounded transaction ages into
		// the oldest in the system and must eventually win
		// (anti-starvation).
		t.r.prioSeq++
		t.prio = t.r.prioSeq
	}
	t.ops = t.ops[:0]
	t.committing = false
	t.r.policy.begin(t)
	t.inTx = true
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(abortSignal); !ok {
				panic(e)
			}
			t.r.policy.abort(t)
			t.inTx = false
			t.committing = false
			if t.r.cfg.Record {
				t.r.history.Aborts++
			}
			committed = false
		}
	}()
	body(t)
	t.committing = true
	t.yield(statusReady) // the commit step
	if !t.r.policy.commit(t) {
		panic(abortSignal{})
	}
	t.inTx = false
	t.committing = false
	if t.r.cfg.Record {
		t.r.history.Commits = append(t.r.history.Commits, CommittedTx{
			Thread:  t.id,
			Attempt: t.attempt,
			Ops:     append([]Op(nil), t.ops...),
		})
	}
	return true
}

// yield ends the thread's current step: it picks the next thread to step
// and, unless that is itself, records the grant and suspends until Run
// resumes it. A pending wound is consumed here: the grant lands as an
// abort.
func (t *thread) yield(status int) {
	t.status = status
	if next := t.r.pick(); next != t {
		t.r.grant = next
		if !t.suspend(struct{}{}) {
			panic(stopSignal{})
		}
	}
	t.status = statusReady
	if t.wounded {
		t.wounded = false
		panic(abortSignal{})
	}
}

// yieldBlocked suspends the thread as blocked on line until a lock releases.
func (t *thread) yieldBlocked(line uint64) {
	t.blockLine = line
	t.blockEpoch = t.r.lockEpoch
	t.yield(statusBlocked)
}

// Tx interface: ReadWord/WriteWord are the yield points.

// ReadWord implements Tx.
func (t *thread) ReadWord(addr mem.PAddr) uint64 {
	t.yield(statusReady)
	v := t.r.policy.read(t, addr)
	if t.r.cfg.Record {
		t.ops = append(t.ops, Op{Kind: OpRead, Addr: addr, Val: v})
	}
	return v
}

// WriteWord implements Tx.
func (t *thread) WriteWord(addr mem.PAddr, v uint64) {
	t.yield(statusReady)
	t.r.policy.write(t, addr, v)
	if t.r.cfg.Record {
		t.ops = append(t.ops, Op{Kind: OpWrite, Addr: addr, Val: v})
	}
}

// advance charges d of computation to the thread's clock.
func (t *thread) advance(d sim.Duration) {
	t.env.AdvanceTo(t.env.Now() + sim.Time(d))
}
