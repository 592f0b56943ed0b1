package core

import (
	"context"
	"time"

	"elsm/internal/blockcache"
	"elsm/internal/lsm"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// kvBase is what the three store modes share: the engine, the enclave
// boundary its calls cross, the write-side wrappers, and one read path —
// every read runs against a ref-counted readView, and only the mode's read
// step (readStep, fixed at open) differs.
type kvBase struct {
	engine  *lsm.Store
	enclave *sgx.Enclave // nil: calls run directly (the unsecured baseline)
	step    readStep

	iterChunkKeys int

	// rec is the shard's observability recorder for the verified read
	// path (nil = instrumentation off; the raw modes leave it nil, so
	// their Gets stay unobserved).
	rec *obs.Recorder
}

// readStep is a mode's read protocol over a pinned view. eLSM-P2 (*Store)
// acquires digest-checked views and verifies every run it reads; eLSM-P1
// and the unsecured baseline (*RawStore) read the engine snapshot as is —
// P1's integrity comes from block seals applied below this layer, the
// baseline has none. Callers of getAt and scanChunk are inside ecall.
type readStep interface {
	// acquire pins a view of the current state; gauged views are read
	// sessions counted in SnapshotsOpen, the others one-shot point reads.
	acquire(gauged bool) (*readView, error)
	getAt(v *readView, key []byte, tsq uint64) (Result, error)
	scanChunk(v *readView, start, end []byte, tsq uint64, maxKeys int) (out []Result, next []byte, done bool, err error)
}

// withDefaults fills the Config defaults every mode shares.
func (cfg Config) withDefaults() Config {
	if cfg.FS == nil {
		cfg.FS = vfs.NewMem()
	}
	if cfg.IterChunkKeys <= 0 {
		cfg.IterChunkKeys = DefaultIterChunkKeys
	}
	return cfg
}

// engineOptions maps the Config's pass-through settings onto the engine
// options; the mode adds its own hooks (listener, block transform).
func (cfg Config) engineOptions(enclave *sgx.Enclave, cache *blockcache.Cache) lsm.Options {
	return lsm.Options{
		FS:                    cfg.FS,
		Enclave:               enclave,
		Cache:                 cache,
		MmapReads:             cfg.MmapReads,
		MemtableSize:          cfg.MemtableSize,
		BlockSize:             cfg.BlockSize,
		TableFileSize:         cfg.TableFileSize,
		LevelBase:             cfg.LevelBase,
		LevelMultiplier:       cfg.LevelMultiplier,
		MaxLevels:             cfg.MaxLevels,
		KeepVersions:          cfg.KeepVersions,
		DisableCompaction:     cfg.DisableCompaction,
		DisableWAL:            cfg.DisableWAL,
		GroupCommitMaxOps:     cfg.GroupCommitMaxOps,
		GroupCommitWindow:     cfg.GroupCommitWindow,
		MaxAsyncCommitBacklog: cfg.MaxAsyncCommitBacklog,
		InlineCompaction:      cfg.InlineCompaction,
		CompactionWorkers:     cfg.CompactionWorkers,
		Workers:               cfg.Workers,
		Obs:                   cfg.Obs,
	}
}

// ecall runs fn as an enclave call (the trusted application calls into the
// enclave, §6.1), or directly when the mode has no enclave.
func (b *kvBase) ecall(fn func()) {
	if b.enclave == nil {
		fn()
		return
	}
	b.enclave.ECall(fn)
}

// pin takes the engine snapshot a view is built on.
func (b *kvBase) pin(gauged bool) *lsm.Snapshot {
	if gauged {
		return b.engine.AcquireSnapshot()
	}
	return b.engine.AcquireEphemeralSnapshot()
}

// Engine exposes the underlying engine (benchmarks and tests).
func (b *kvBase) Engine() *lsm.Store { return b.engine }

// Enclave exposes the simulated enclave; nil for the unsecured baseline.
func (b *kvBase) Enclave() *sgx.Enclave { return b.enclave }

// ---------------------------------------------------------------------------
// Writes (each one enclave call)

// Put writes a key-value record, returning its trusted timestamp.
func (b *kvBase) Put(key, value []byte) (uint64, error) { return b.PutCtx(nil, key, value) }

// PutCtx is Put with commit-queue cancellation: a context cancelled while
// the write still waits in the group-commit queue withdraws it.
func (b *kvBase) PutCtx(ctx context.Context, key, value []byte) (uint64, error) {
	var ts uint64
	var err error
	b.ecall(func() { ts, err = b.engine.PutCtx(ctx, key, value) })
	return ts, err
}

// Delete writes a tombstone.
func (b *kvBase) Delete(key []byte) (uint64, error) { return b.DeleteCtx(nil, key) }

// DeleteCtx is Delete with commit-queue cancellation.
func (b *kvBase) DeleteCtx(ctx context.Context, key []byte) (uint64, error) {
	var ts uint64
	var err error
	b.ecall(func() { ts, err = b.engine.DeleteCtx(ctx, key) })
	return ts, err
}

// Sync is the durability barrier: it returns once every commit accepted
// before the call — synchronous or asynchronous — is fsynced to the
// untrusted log.
func (b *kvBase) Sync(ctx context.Context) error {
	var err error
	b.ecall(func() { err = b.engine.Sync(ctx) })
	return err
}

// ApplyBatch applies a group of writes in ONE enclave round trip, riding
// the engine's cross-client group-commit pipeline: the batch shares a
// single marker-terminated group append+fsync — and, on eLSM-P2, at most
// one monotonic-counter bump, paid after the group is durable — with every
// concurrent commit that joined the same group. It returns the batch's
// commit timestamp — the trusted timestamp of its last record.
func (b *kvBase) ApplyBatch(ops []BatchOp) (uint64, error) { return b.ApplyBatchCtx(nil, ops) }

// ApplyBatchCtx is ApplyBatch with commit-queue cancellation: a context
// cancelled while the batch still waits in the queue withdraws it (nothing
// is written); once claimed by the committer the batch completes regardless.
func (b *kvBase) ApplyBatchCtx(ctx context.Context, ops []BatchOp) (uint64, error) {
	var ts uint64
	var err error
	b.ecall(func() { ts, err = b.engine.ApplyBatchCtx(ctx, ops) })
	return ts, err
}

// CommitAsync applies a group of writes with pipelined durability: the
// caller gets a CommitFuture acknowledged at append (timestamp assigned)
// and resolved at fsync — the engine pipelines the next group's WAL append
// with this group's fsync.
func (b *kvBase) CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error) {
	var fut *CommitFuture
	var err error
	b.ecall(func() { fut, err = b.engine.CommitAsync(ctx, ops) })
	return fut, err
}

// Flush forces the memtable to disk (on eLSM-P2, through the authenticated
// flush path).
func (b *kvBase) Flush() error {
	var err error
	b.ecall(func() { err = b.engine.Flush() })
	return err
}

// BulkLoad populates an empty store (YCSB load phase at scale; on eLSM-P2
// the digest forest is built in the same authenticated pass).
func (b *kvBase) BulkLoad(recs []record.Record) error {
	var err error
	b.ecall(func() { err = b.engine.BulkLoad(recs) })
	return err
}

// ---------------------------------------------------------------------------
// Reads (every one through a pinned readView)

// Get returns the latest value of key.
func (b *kvBase) Get(key []byte) (Result, error) { return b.GetAt(key, record.MaxTs) }

// GetAt returns the newest value with Ts ≤ tsq (the paper's GET(k, tsq)).
func (b *kvBase) GetAt(key []byte, tsq uint64) (Result, error) {
	return b.GetAtCtx(nil, key, tsq)
}

// GetAtCtx is GetAt with cancellation (checked before the enclave call —
// a point lookup is a single short ECall). It acquires an ephemeral read
// view — the same pinned unit that backs Snapshot — runs the mode's GET
// against it, and releases it: point reads, iterators and snapshots share
// one implementation.
func (b *kvBase) GetAtCtx(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	var start time.Time
	if b.rec != nil {
		start = time.Now()
	}
	var res Result
	var err error
	b.ecall(func() {
		var v *readView
		v, err = b.step.acquire(false)
		if err != nil {
			return
		}
		res, err = b.step.getAt(v, key, tsq)
		v.release()
	})
	if b.rec != nil && err == nil {
		b.rec.GetE2E.ObserveSince(start)
	}
	return res, err
}

// Scan returns the latest value of every key in [start, end] (§5.4: on
// eLSM-P2 a completeness-verified range query), rebased on the streaming
// iterator.
func (b *kvBase) Scan(start, end []byte) ([]Result, error) {
	return scanAll(b.IterAt(start, end, record.MaxTs))
}
