package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Defaults for NewObserver knobs left zero.
const (
	// DefaultSampleEvery traces every Nth commit group into the trace
	// ring (slow groups are captured regardless of sampling).
	DefaultSampleEvery = 64
	// DefaultSlowOpThreshold is the stage-breakdown capture threshold: a
	// commit group or traced request slower end-to-end than this lands in
	// the slow-op log.
	DefaultSlowOpThreshold = 50 * time.Millisecond
	// Ring capacities. Small and fixed: the rings are diagnostic windows,
	// not durable logs.
	DefaultTraceRing  = 256
	DefaultSlowOpRing = 128
	DefaultEventRing  = 512
)

// Stage is one timed phase inside a trace.
type Stage struct {
	Name  string `json:"name"`
	Nanos uint64 `json:"nanos"`
}

// Trace is one completed span: a sampled (or slow) commit group or
// request with its per-stage time breakdown.
type Trace struct {
	// Kind names the traced span ("commit-group", ...).
	Kind string `json:"kind"`
	// Shard is the shard the span ran on.
	Shard int `json:"shard"`
	// Seq identifies the span within its kind (the group's trusted
	// timestamp for commit groups).
	Seq uint64 `json:"seq"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// TotalNanos is the end-to-end duration; Stages attributes it.
	TotalNanos uint64  `json:"total_nanos"`
	Stages     []Stage `json:"stages"`
	// Records is the operation count the span carried (group size).
	Records int `json:"records"`
	// Slow marks spans that exceeded the slow-op threshold (they are
	// recorded even when not sampled).
	Slow bool `json:"slow"`
}

// Event is one structured fault/lifecycle entry: the paths that used to
// be silent or log-line-only (fail-stops, fenced frames, re-bootstraps,
// promotions, BUSY sheds, torn-tail recoveries).
type Event struct {
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"`
	Shard int       `json:"shard"`
	Msg   string    `json:"msg"`
}

// Event kinds. One flat namespace so /events consumers can filter
// without parsing messages.
const (
	EventFailStop    = "fail-stop"   // engine entered a permanent error state
	EventWALError    = "wal-error"   // WAL append/rotate fault
	EventTornTail    = "torn-tail"   // recovery dropped a torn WAL suffix
	EventFenced      = "repl-fenced" // frame from a deposed leader epoch rejected
	EventBehind      = "repl-behind" // follower fell out of the leader's ring
	EventReconnect   = "repl-reconnect"
	EventRebootstrap = "repl-rebootstrap"
	EventPromote     = "promote"
	EventBusyShed    = "busy-shed" // admission control refused load
)

// Observer is the store-wide observability hub: the bounded trace,
// slow-op and event rings, the sampling/threshold policy, and the
// histograms that live above the shards (network service time,
// cross-shard router batches). One Observer is shared by all of a
// store's per-shard Recorders. A nil *Observer disables everything it
// owns at the cost of a pointer test.
type Observer struct {
	// NetService records netsrv per-request service time (decode to
	// response queue), both read-side execution and write admission.
	NetService Histogram
	// RouterBatch records cross-shard batch commit end-to-end time at
	// the shard router.
	RouterBatch Histogram

	sampleEvery uint64
	slowThresh  uint64 // nanoseconds
	sampleCtr   atomic.Uint64

	traces  *ring[Trace]
	slowOps *ring[Trace]
	events  *ring[Event]

	// shedStamp rate-limits BUSY-shed events (an overloaded server sheds
	// thousands per second; one event per interval records the episode
	// without turning the event ring into a shed counter).
	shedStamp atomic.Int64
}

// Config tunes NewObserver; the zero value selects the defaults above.
type Config struct {
	// SampleEvery traces every Nth commit group (0 = default; 1 = every
	// group).
	SampleEvery int
	// SlowOpThreshold routes any span slower than this into the slow-op
	// log regardless of sampling (0 = default).
	SlowOpThreshold time.Duration
	// TraceRing / SlowOpRing / EventRing bound the rings (0 = default).
	TraceRing  int
	SlowOpRing int
	EventRing  int
}

// NewObserver builds the shared hub.
func NewObserver(cfg Config) *Observer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SlowOpThreshold <= 0 {
		cfg.SlowOpThreshold = DefaultSlowOpThreshold
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = DefaultTraceRing
	}
	if cfg.SlowOpRing <= 0 {
		cfg.SlowOpRing = DefaultSlowOpRing
	}
	if cfg.EventRing <= 0 {
		cfg.EventRing = DefaultEventRing
	}
	return &Observer{
		sampleEvery: uint64(cfg.SampleEvery),
		slowThresh:  uint64(cfg.SlowOpThreshold),
		traces:      newRing[Trace](cfg.TraceRing),
		slowOps:     newRing[Trace](cfg.SlowOpRing),
		events:      newRing[Event](cfg.EventRing),
	}
}

// SlowThreshold reports the slow-op capture threshold.
func (o *Observer) SlowThreshold() time.Duration {
	if o == nil {
		return 0
	}
	return time.Duration(o.slowThresh)
}

// SampleEvery reports the trace sampling period.
func (o *Observer) SampleEvery() uint64 {
	if o == nil {
		return 0
	}
	return o.sampleEvery
}

// sampleTick reports whether the caller's span is sampled: every Nth
// call returns true. One shared atomic across shards keeps the global
// trace rate at 1/N regardless of shard count.
func (o *Observer) sampleTick() bool {
	if o == nil {
		return false
	}
	return o.sampleCtr.Add(1)%o.sampleEvery == 0
}

// ShouldTrace reports whether the next span should carry a trace: true
// for every Nth span (sampling). Slow spans are captured in Record even
// when untraced, from the same stage timings.
func (o *Observer) ShouldTrace() bool { return o.sampleTick() }

// Record files a completed trace: sampled traces go to the trace ring;
// any trace exceeding the slow threshold also goes to the slow-op log
// (marked Slow), whether or not it was sampled.
func (o *Observer) Record(t Trace, sampled bool) {
	if o == nil {
		return
	}
	if t.TotalNanos >= o.slowThresh {
		t.Slow = true
		o.slowOps.append(t)
	}
	if sampled {
		o.traces.append(t)
	}
}

// Event appends one structured event.
func (o *Observer) Event(kind string, shard int, format string, args ...interface{}) {
	if o == nil {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	o.events.append(Event{Time: time.Now(), Kind: kind, Shard: shard, Msg: msg})
}

// BusyShed records one admission-control shed as an event, rate-limited
// to one per 100ms: overload episodes appear in the event log without
// the shed storm flooding it (the shed COUNT lives in the net_* gauges).
func (o *Observer) BusyShed(where string) {
	if o == nil {
		return
	}
	now := time.Now().UnixNano()
	last := o.shedStamp.Load()
	if now-last < int64(100*time.Millisecond) {
		return
	}
	if !o.shedStamp.CompareAndSwap(last, now) {
		return // another shed in the same instant won the slot
	}
	o.events.append(Event{Time: time.Now(), Kind: EventBusyShed, Shard: -1, Msg: where})
}

// Traces returns the retained sampled traces, oldest first.
func (o *Observer) Traces() []Trace {
	if o == nil {
		return nil
	}
	return o.traces.snapshot()
}

// SlowOps returns the retained slow-op traces, oldest first.
func (o *Observer) SlowOps() []Trace {
	if o == nil {
		return nil
	}
	return o.slowOps.snapshot()
}

// Events returns the retained events, oldest first.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.events.snapshot()
}

// EventsTotal reports how many events were ever recorded (including
// evicted ones).
func (o *Observer) EventsTotal() uint64 {
	if o == nil {
		return 0
	}
	return o.events.total()
}

// Recorder is one shard's instrumentation surface: the named latency
// histograms the engine hot paths observe into, plus the route to the
// shared Observer for traces and events. All fields tolerate concurrent
// use; a nil *Recorder is a no-op surface (the compiled-out
// configuration: hot paths guard on the nil before even reading the
// clock).
type Recorder struct {
	// Shard is this recorder's shard index (the /metrics label).
	Shard int

	// Per-op end-to-end latency (nanoseconds).
	PutE2E    Histogram // single-record commits
	CommitE2E Histogram // multi-record batch commits
	GetE2E    Histogram // verified point reads
	ScanChunk Histogram // one verified scan chunk

	// Commit-pipeline stages, per group: time a commit waits in the
	// pending queue; the group's WAL append critical section (timestamp
	// assignment → grouped append → acknowledgement); the fsync that made
	// it durable (shared across absorbed groups — each group reports the
	// fsync it rode); memtable apply; future resolution.
	CommitQueueWait Histogram
	CommitAppend    Histogram
	CommitFsync     Histogram
	CommitApply     Histogram
	CommitResolve   Histogram

	// Compaction phases (flushes and level merges both): snapshot under
	// the brief engine lock, the lock-free merge/build/hash middle, the
	// install critical section.
	CompactSnapshot Histogram
	CompactMerge    Histogram
	CompactInstall  Histogram

	// Verification cost per Get: time spent in Merkle verification and
	// the proof bytes decoded (ProofBytes observes bytes, not
	// nanoseconds).
	Verify     Histogram
	ProofBytes Histogram

	obs *Observer
}

// NewRecorder builds shard shard's recorder, routed to o.
func NewRecorder(shard int, o *Observer) *Recorder {
	return &Recorder{Shard: shard, obs: o}
}

// Observer returns the shared hub (nil on a nil recorder).
func (r *Recorder) Observer() *Observer {
	if r == nil {
		return nil
	}
	return r.obs
}

// Event files a structured event stamped with this recorder's shard.
func (r *Recorder) Event(kind string, format string, args ...interface{}) {
	if r == nil {
		return
	}
	r.obs.Event(kind, r.Shard, format, args...)
}

// ShouldTrace reports whether the caller's next span is sampled.
func (r *Recorder) ShouldTrace() bool {
	if r == nil {
		return false
	}
	return r.obs.ShouldTrace()
}

// SlowThresholdNanos reports the slow-op threshold in nanoseconds (0 on
// a nil recorder: nothing is slow because nothing is watched).
func (r *Recorder) SlowThresholdNanos() uint64 {
	if r == nil || r.obs == nil {
		return 0
	}
	return r.obs.slowThresh
}

// Record files a completed trace stamped with this recorder's shard.
func (r *Recorder) Record(t Trace, sampled bool) {
	if r == nil {
		return
	}
	t.Shard = r.Shard
	r.obs.Record(t, sampled)
}

// Hists enumerates the recorder's histograms with their canonical
// metric names — the ONE list behind /metrics and the STATS frame's
// histogram pairs, so the two expositions can never drift apart.
func (r *Recorder) Hists() []NamedHist {
	if r == nil {
		return nil
	}
	return []NamedHist{
		{"put_e2e_nanos", &r.PutE2E},
		{"commit_e2e_nanos", &r.CommitE2E},
		{"get_e2e_nanos", &r.GetE2E},
		{"scan_chunk_nanos", &r.ScanChunk},
		{"commit_queue_wait_nanos", &r.CommitQueueWait},
		{"commit_append_nanos", &r.CommitAppend},
		{"commit_fsync_nanos", &r.CommitFsync},
		{"commit_apply_nanos", &r.CommitApply},
		{"commit_resolve_nanos", &r.CommitResolve},
		{"compact_snapshot_nanos", &r.CompactSnapshot},
		{"compact_merge_nanos", &r.CompactMerge},
		{"compact_install_nanos", &r.CompactInstall},
		{"verify_nanos", &r.Verify},
		{"proof_bytes", &r.ProofBytes},
	}
}

// NamedHist pairs a histogram with its canonical metric name.
type NamedHist struct {
	Name string
	Hist *Histogram
}
