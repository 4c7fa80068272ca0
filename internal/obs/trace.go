package obs

// This file is the causal per-job event tracer: where the metrics
// registry aggregates (how many cells were quarantined), the tracer
// keeps the chain (THIS job was evaluated on each mode, then passed its
// gate, then committed to the store). Every sweep job emits a
// monotonically-timestamped event chain — enqueue, queue wait,
// dispatch, estimator choice, validation gate, store lookup/commit —
// as one JSON line per event to the writer the tracer was built with
// (a -trace file, or the buffer a test reads back with ReadTrace).
//
// Three invariants, mirroring the registry's:
//
//   - Nil is off. Every method no-ops on a nil *Tracer, and
//     WithTraceContext on a nil tracer returns ctx unchanged, so call
//     sites never branch on "is tracing on".
//
//   - Trace IDs are content-derived. A store-backed sweep derives each
//     job's trace ID from the same content digest that addresses its
//     cached result (sweep.TraceKeyer), so the chain of the run that
//     computed a cell and the chain of every later run that served it
//     from the store share one ID — traces join against cached
//     results. Sweeps without a store fall back to
//     TraceID("sweep", N, "job", i), still stable run to run.
//
//   - Timestamps are telemetry. TSNS is monotonic nanoseconds since
//     the tracer's epoch (Go's time.Since uses the monotonic clock),
//     so within one trace the chain never runs backwards; but wall
//     time is never fed back into results — traced and untraced runs
//     render byte-identical reports (DESIGN.md §12).
//
// Event ordering: Seq is a per-tracer total order assigned under the
// emit lock. The global interleaving of concurrent jobs is
// scheduling-dependent, but the sub-sequence of any single trace ID is
// causal and deterministic — the per-job chain tests pin it.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Canonical trace event names. Like metric names these are grep-able
// compile-time constants matching [a-z0-9_/]+ (opmlint counternames
// covers Emit/TraceEvent call sites); cmd/opmprof's phase attribution
// keys on them.
const (
	EvEnqueue     = "job/enqueue"     // job submitted to a sweep (worker -1)
	EvDispatch    = "job/dispatch"    // worker picked the job up (TS − enqueue TS = queue wait)
	EvDone        = "job/done"        // job finished successfully (dur: dispatch-to-done busy time)
	EvError       = "job/error"       // job failed or was skipped (detail: error)
	EvEstimator   = "estimator/serve" // one machine evaluated by the estimator (detail: exact)
	EvGate        = "gate/result"     // validation gate verdict (detail: ok | quarantine)
	EvStoreHit    = "store/hit"       // cache lookup hit — job bypasses the pool (dur: lookup)
	EvStoreMiss   = "store/miss"      // cache lookup missed — job will compute (dur: lookup)
	EvStoreCommit = "store/commit"    // result checkpointed to the store (dur: commit)

	// Serve-daemon request events (internal/serve). They share the
	// cell's store-digest trace ID, so a request chain joins the batch
	// job chains that computed or will compute the same cell.
	EvServeRecv = "serve/recv"    // request arrived (detail: route|class)
	EvServeHot  = "serve/hot_hit" // hot-set hit — served from memory, no disk, no pool (dur: lookup)
	EvAdmit     = "serve/admit"   // admission granted (dur: queue wait, detail: class)
	EvReject    = "serve/reject"  // admission rejected with 429 (detail: class)
)

// Event is one step of a job's causal chain.
type Event struct {
	// Seq is the tracer-wide emission order (1-based, gapless).
	Seq uint64 `json:"seq"`
	// TSNS is monotonic nanoseconds since the tracer's epoch.
	TSNS int64 `json:"ts_ns"`
	// DurNS is the phase duration some events carry (store
	// lookup/commit, job busy time); 0 for instants.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Trace is the stable job/trace ID the chain groups under.
	Trace string `json:"trace"`
	// Name is one of the Ev* constants.
	Name string `json:"name"`
	// Job is the human job key (matrix name, dense cell, submission
	// index) — what opmprof prints next to the chain.
	Job string `json:"job,omitempty"`
	// Worker is the sweep worker that emitted the event, -1 when no
	// worker is involved (enqueue, store hits).
	Worker int `json:"worker"`
	// Detail is free-form event payload (error text, estimator mode,
	// gate verdict).
	Detail string `json:"detail,omitempty"`
}

// Tracer writes Events as JSONL to the writer it was built with. All
// methods are safe for concurrent use and on a nil receiver (the off
// switch).
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	seq    uint64
	sweeps uint64
	sink   *bufio.Writer // nil once closed
	file   *os.File      // set by CreateTracer; Close closes it
	err    error         // first sink error; disables the sink
}

// NewTracer returns a tracer that writes every event as one JSON line
// to w through a buffer that Flush and Close drain. The caller owns w;
// a w shared with concurrent readers must guard its own state. The
// epoch — the zero point of every TSNS — is the moment of construction.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		// The tracer's one epoch read: every event timestamp is a
		// monotonic delta from here, and nothing downstream of a report
		// ever reads it.
		epoch: time.Now(), //opmlint:allow determinism — trace timestamps are telemetry output only, never an input to simulated results
		sink:  bufio.NewWriter(w),
	}
}

// CreateTracer creates (truncating) path and returns a tracer writing
// to it; Close flushes and closes the file.
func CreateTracer(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace sink: %w", err)
	}
	t := NewTracer(f)
	t.file = f
	return t, nil
}

// Emit records one event: trace/job identity, the emitting worker
// (-1 for none), an optional phase duration, and free-form detail.
// Timestamp and sequence number are assigned here, under the lock, so
// Seq order and TSNS order agree. After Close, or once the sink has
// failed, the event is counted but not written. No-op on a nil tracer.
func (t *Tracer) Emit(trace, name, job string, worker int, dur time.Duration, detail string) {
	if t == nil {
		return
	}
	ts := time.Since(t.epoch) //opmlint:allow determinism — trace timestamps are telemetry output only, never an input to simulated results
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if t.sink == nil || t.err != nil {
		return
	}
	data, err := json.Marshal(Event{Seq: t.seq, TSNS: int64(ts), DurNS: int64(dur),
		Trace: trace, Name: name, Job: job, Worker: worker, Detail: detail})
	if err == nil {
		_, err = t.sink.Write(append(data, '\n'))
	}
	// First sink failure sticks and disables the sink: Close surfaces
	// it, and a broken trace file must never slow or fail the sweep it
	// was observing.
	t.err = err
}

// Emitted returns the total number of events emitted. 0 on a nil
// tracer.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// NextSweep returns a fresh per-tracer sweep sequence number — the
// fallback trace-ID ingredient for sweeps without a content-addressed
// cache. Deterministic as long as sweeps start in a deterministic
// order, which the harness's sequential experiment loop guarantees.
func (t *Tracer) NextSweep() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweeps++
	return t.sweeps
}

// Flush drains the sink's buffer into its writer and reports the first
// sink error. Safe on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Tracer) flushLocked() error {
	if t.sink != nil {
		if err := t.sink.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Close flushes the sink, closes the file CreateTracer opened, and
// reports the first error the sink hit; later events are not written.
// Safe on a nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.flushLocked()
	if t.file != nil {
		if cerr := t.file.Close(); err == nil {
			err = cerr
		}
		t.file = nil
	}
	t.sink = nil
	return err
}

// TraceID derives a stable 16-hex-digit trace ID from its parts,
// length-prefix hashed like store.Digest so distinct part lists never
// collide by concatenation. Parts up to 256 bytes in all hash from the
// stack, so the ID string is the one allocation.
func TraceID(parts ...string) string {
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	var id [16]byte
	hex.Encode(id[:], sum[:8])
	return string(id[:])
}

// ReadTrace decodes a JSONL event stream (the Tracer's format). Blank
// lines are skipped; a malformed line fails the read with its line
// number.
func ReadTrace(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		data := sc.Bytes()
		if len(data) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// ReadTraceFile loads a JSONL trace written by CreateTracer.
func ReadTraceFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	defer f.Close() // read-only fd; decode errors surface via ReadTrace
	return ReadTrace(f)
}

// traceCtxKey carries the ambient trace reference through a job's
// context so layers below the sweep engine (estimators, the validation
// gate, store commits) can append to the job's chain without new
// parameters.
type traceCtxKey struct{}

type traceRef struct {
	tr     *Tracer
	id     string
	job    string
	worker int
}

// WithTraceContext binds (tracer, trace ID, job key, worker) into ctx.
// With a nil tracer it returns ctx unchanged, so untraced runs never
// pay for a context wrap.
func WithTraceContext(ctx context.Context, tr *Tracer, id, job string, worker int) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceRef{tr: tr, id: id, job: job, worker: worker})
}

// TraceEvent appends an instant event to the chain bound into ctx.
// No-op when ctx carries no trace (the untraced fast path: one failed
// context lookup).
func TraceEvent(ctx context.Context, name, detail string) {
	TraceEventDur(ctx, name, 0, detail)
}

// TraceEventDur is TraceEvent with a phase duration (store commit
// time).
func TraceEventDur(ctx context.Context, name string, dur time.Duration, detail string) {
	ref, ok := ctx.Value(traceCtxKey{}).(traceRef)
	if !ok {
		return
	}
	ref.tr.Emit(ref.id, name, ref.job, ref.worker, dur, detail) //opmlint:allow counternames — forwarding helper: the event-name constant is checked at the TraceEvent/TraceEventDur call site
}
