package elsm

import (
	"context"
	"errors"
	"fmt"
	"io"

	"elsm/internal/core"
	"elsm/internal/obs"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// ErrReadOnlyReplica rejects writes on a follower store. Followers apply
// only groups shipped from their leader; local writes would fork the
// authenticated history.
var ErrReadOnlyReplica = errors.New("elsm: store is a read-only replica")

// FollowerSource feeds a follower: per-shard checkpoint streams for
// bootstrap and authenticated group tails for catch-up. Obtain one from the
// leader process via Store.ReplicationSource (in-process) or
// NewFollowerSource (over the elsm-server wire protocol).
type FollowerSource = repl.Source

// NewFollowerSource returns a FollowerSource that dials an elsm-server
// leader at addr for every stream (the REPL_CHECKPOINT and REPL_TAIL ops).
func NewFollowerSource(addr string) FollowerSource { return repl.NewNetSource(addr) }

// ReplicationSource turns this store into a replication leader: every shard
// gets a hub that retains recently committed groups and serves verified
// checkpoint and tail streams. The returned source can bootstrap and feed
// any number of in-process followers (OpenFollower) or be served over the
// network (cmd/elsm-server serves it as its replication ops). Requires
// ModeP2 — replication ships attested state. Idempotent; the hubs close
// with the store.
func (s *Store) ReplicationSource() (FollowerSource, error) {
	if s.mode != ModeP2 {
		return nil, fmt.Errorf("elsm: replication requires ModeP2 (attested checkpoints and shipped groups); store runs %v", s.mode)
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.leaders == nil {
		cores, err := s.shardCores()
		if err != nil {
			return nil, err
		}
		leaders := make([]*repl.Leader, len(cores))
		for i, cs := range cores {
			leaders[i] = repl.NewLeader(cs, int64(s.ringBytes), i, len(cores))
		}
		s.leaders = leaders
	}
	return repl.NewLocalSource(s.leaders), nil
}

// OpenFollower opens a read-only replica fed from src. Shards without
// sealed local state bootstrap from a verified checkpoint (each run checked
// against the attested digest frontier before install); shards with state
// recover it exactly like a leader restart. Every shard then tails its
// leader feed from its durable frontier, verifying each shipped group
// (attestation report, shard identity, WAL hash chain, timestamp
// contiguity) before applying it. Reads serve the follower's own Merkle
// forest with full verification; writes fail with ErrReadOnlyReplica.
//
// Requirements: ModeP2 (the default), and opts.Platform sharing the
// leader's attestation root (sgx.NewPlatformFromSecret on both sides
// stands in for remote attestation). opts.Shards must match the leader's
// partition count — the attested shard identity in every checkpoint and
// shipped group enforces it, so a mismatch fails bootstrap (or the first
// tailed frame) instead of building an incomplete replica. Missing
// counters are created fresh; pass Counter/ShardCounters to keep rollback
// detection across follower restarts.
//
//	platform := sgx.NewPlatformFromSecret(secret) // same secret as leader
//	f, err := elsm.OpenFollower(elsm.Options{Platform: platform},
//	    elsm.NewFollowerSource("leader:7070"))
//	res, err := f.Get(key)                        // verified replica read
func OpenFollower(opts Options, src FollowerSource) (*Store, error) {
	if opts.Mode == 0 {
		opts.Mode = ModeP2
	}
	if opts.Mode != ModeP2 {
		return nil, fmt.Errorf("elsm: follower mode requires ModeP2, got %v", opts.Mode)
	}
	if opts.Platform == nil {
		return nil, errors.New("elsm: follower needs Options.Platform sharing the leader's attestation root (sgx.NewPlatformFromSecret)")
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Restore and open must see one filesystem and one set of counters, so
	// resolve both here instead of letting Open conjure fresh ones.
	if opts.FS == nil {
		if opts.Dir != "" {
			osfs, err := vfs.NewOS(opts.Dir)
			if err != nil {
				return nil, err
			}
			opts.FS = osfs
			opts.Dir = ""
		} else {
			opts.FS = vfs.NewMem()
		}
	}
	if opts.Shards == 1 {
		if opts.Counter == nil && len(opts.ShardCounters) == 1 {
			opts.Counter = opts.ShardCounters[0]
			opts.ShardCounters = nil
		}
		if opts.Counter == nil {
			opts.Counter = sgx.NewMonotonicCounter()
		}
	} else if len(opts.ShardCounters) == 0 {
		opts.ShardCounters = make([]*sgx.MonotonicCounter, opts.Shards)
		for i := range opts.ShardCounters {
			opts.ShardCounters[i] = sgx.NewMonotonicCounter()
		}
	}
	for i := 0; i < opts.Shards; i++ {
		fs, ctr, err := followerShardEnv(&opts, i)
		if err != nil {
			return nil, err
		}
		if !core.NeedsBootstrap(fs) {
			continue // sealed state present: a restart, recover it below
		}
		if err := bootstrapShard(fs, opts.Platform, ctr, src, i, opts.Shards); err != nil {
			return nil, err
		}
	}
	s, err := Open(opts)
	if err != nil {
		return nil, err
	}
	s.readOnly.Store(true)
	s.fsrc = src
	s.fopts = &opts
	if err := s.startTailers(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// followerShardEnv resolves shard i's filesystem and trust root from the
// follower's (already resolved) options.
func followerShardEnv(opts *Options, i int) (vfs.FS, *sgx.MonotonicCounter, error) {
	if opts.Shards <= 1 {
		return opts.FS, opts.Counter, nil
	}
	sub, err := vfs.Sub(opts.FS, shard.DirName(i))
	if err != nil {
		return nil, nil, fmt.Errorf("elsm: follower shard %d filesystem: %w", i, err)
	}
	return sub, opts.ShardCounters[i], nil
}

// startTailers starts one tailer per shard from the durable frontier and a
// supervisor goroutine per tailer that reacts to repl.ErrBehind with an
// automatic checkpoint re-bootstrap.
func (s *Store) startTailers() error {
	cores, err := s.shardCores()
	if err != nil {
		return err
	}
	tailers := make([]*repl.Tailer, len(cores))
	for i, cs := range cores {
		tailers[i] = repl.StartTailer(cs, s.fsrc, i, len(cores))
	}
	s.replMu.Lock()
	s.tailers = tailers
	s.replMu.Unlock()
	for _, t := range tailers {
		go s.superviseTailer(t)
	}
	return nil
}

// currentTailers snapshots the live tailer set (it changes across
// re-bootstraps and empties at promotion).
func (s *Store) currentTailers() []*repl.Tailer {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.tailers
}

// superviseTailer watches one tailer generation. repl.ErrBehind is the one
// fail-stop a follower can recover from on its own — the leader's ring no
// longer reaches our frontier (or a promotion moved the epoch past ours),
// but a fresh verified checkpoint re-joins the stream. Everything else
// (verification failures, fencing) stays down for the operator.
func (s *Store) superviseTailer(t *repl.Tailer) {
	<-t.Done()
	if !errors.Is(t.Err(), repl.ErrBehind) {
		return
	}
	s.maybeRebootstrap(t)
}

// maybeRebootstrap re-bootstraps the follower unless the trigger's tailer
// generation was already replaced (N shards falling behind together race N
// supervisors here; the first one re-bootstraps the whole store, the rest
// find their tailer gone and stand down).
func (s *Store) maybeRebootstrap(trigger *repl.Tailer) {
	s.failoverMu.Lock()
	defer s.failoverMu.Unlock()
	if s.closed || !s.readOnly.Load() {
		return
	}
	member := false
	for _, t := range s.currentTailers() {
		if t == trigger {
			member = true
			break
		}
	}
	if !member {
		return
	}
	if err := s.rebootstrapLocked(); err != nil {
		s.replMu.Lock()
		s.bootErr = fmt.Errorf("elsm: automatic re-bootstrap failed: %w", err)
		s.replMu.Unlock()
		s.obsv.Event(obs.EventRebootstrap, -1, "automatic re-bootstrap failed: %v", err)
		return
	}
	s.rebootstraps.Add(1)
	s.obsv.Event(obs.EventRebootstrap, -1,
		"follower re-bootstrapped from checkpoint (total %d)", s.rebootstraps.Load())
}

// rebootstrapLocked (failoverMu held) tears the follower down and rebuilds
// it from the source: stop every tailer, close the engine, wipe and
// re-checkpoint the shards that fell behind (recovering the rest from
// their sealed state), reopen, swap the engine in and restart the tailers.
// Reads racing the swap may see the old engine's closed error for a
// moment; the store is serving verified state again when this returns.
func (s *Store) rebootstrapLocked() error {
	old := s.currentTailers()
	for _, t := range old {
		t.Close()
	}
	behind := make(map[int]bool, len(old))
	for i, t := range old {
		behind[i] = errors.Is(t.Err(), repl.ErrBehind)
	}
	if err := s.base().Close(); err != nil {
		return fmt.Errorf("close stale engine: %w", err)
	}
	opts := *s.fopts
	// Thread the existing hub through so the event history and store-wide
	// histograms survive the engine swap (per-shard recorders restart with
	// the fresh engine).
	opts.obsHub = s.obsv
	for i := 0; i < opts.Shards; i++ {
		fs, ctr, err := followerShardEnv(&opts, i)
		if err != nil {
			return err
		}
		if !behind[i] && !core.NeedsBootstrap(fs) {
			continue
		}
		if err := bootstrapShard(fs, opts.Platform, ctr, s.fsrc, i, opts.Shards); err != nil {
			return err
		}
	}
	fresh, err := Open(opts)
	if err != nil {
		return fmt.Errorf("reopen after re-bootstrap: %w", err)
	}
	s.kvMu.Lock()
	s.kv = fresh.kv // steal the engine; the wrapper is discarded un-closed
	s.recs = fresh.recs
	s.kvMu.Unlock()
	s.replMu.Lock()
	s.bootErr = nil
	s.replMu.Unlock()
	return s.startTailers()
}

// bootstrapShard wipes any partial prior restore and imports shard i's
// checkpoint from src into fs. The restore rejects a checkpoint whose
// attested shard identity is not (i, shards) — mismatched follower
// opts.Shards, or a transport serving the wrong shard's stream, fail here
// instead of silently building an incomplete replica.
func bootstrapShard(fs vfs.FS, platform *sgx.Platform, ctr *sgx.MonotonicCounter, src FollowerSource, i, shards int) error {
	if err := core.WipeFS(fs); err != nil {
		return fmt.Errorf("elsm: follower shard %d wipe: %w", i, err)
	}
	rc, err := src.Checkpoint(i)
	if err != nil {
		return fmt.Errorf("elsm: follower shard %d checkpoint: %w", i, err)
	}
	err = core.RestoreCheckpoint(rc, core.RestoreConfig{
		FS: fs, Platform: platform, Counter: ctr, Shard: i, Shards: shards,
	})
	rc.Close()
	if err != nil {
		return fmt.Errorf("elsm: follower shard %d bootstrap: %w", i, err)
	}
	return nil
}

// IsFollower reports whether this store is a read-only replica.
func (s *Store) IsFollower() bool { return s.readOnly.Load() }

// ReplEpoch reports the store's sealed replication epoch (shard 0's on a
// sharded store, where epochs advance in lockstep at promotion). Frames
// attesting an older epoch are fenced with repl.ErrFenced.
func (s *Store) ReplEpoch() uint64 {
	cores, err := s.shardCores()
	if err != nil || len(cores) == 0 {
		return 0
	}
	return cores[0].ReplEpoch()
}

// Promote turns this follower into a writable leader — the failover path
// when the old leader is gone. It stops the tailers (draining whatever the
// feed already delivered), verifies no tailer failed verification (a
// follower that detected tampering must not be promoted over it), seals
// every shard at its durable frontier under a NEW replication epoch, and
// flips the store writable. Frames a zombie leader keeps shipping from the
// old epoch are rejected with repl.ErrFenced by anyone tailing the
// promoted store's lineage. All shards promote together; the returned
// epoch is the store's new sealed epoch.
//
//	// leader died; on the replica:
//	epoch, err := follower.Promote(ctx)
//	// follower now accepts writes and can serve ReplicationSource()
//
// A tailer down with repl.ErrBehind does not block promotion: its state is
// consistent, merely stale, and accepting that data loss is exactly the
// operator's call when they invoke failover.
func (s *Store) Promote(ctx context.Context) (uint64, error) {
	s.failoverMu.Lock()
	defer s.failoverMu.Unlock()
	if s.closed {
		return 0, errors.New("elsm: store is closed")
	}
	if !s.readOnly.Load() {
		return 0, errors.New("elsm: Promote requires a follower store")
	}
	tailers := s.currentTailers()
	for _, t := range tailers {
		t.Close()
	}
	for i, t := range tailers {
		if err := t.Err(); err != nil && !errors.Is(err, repl.ErrBehind) {
			return 0, fmt.Errorf("elsm: refusing to promote shard %d over a failed-stop tailer: %w", i, err)
		}
	}
	cores, err := s.shardCores()
	if err != nil {
		return 0, err
	}
	// Pre-drain every shard's apply pipeline so the per-shard epoch bumps
	// below cannot fail halfway through (all shards promote, or none).
	if err := s.base().Sync(ctx); err != nil {
		return 0, fmt.Errorf("elsm: promote drain: %w", err)
	}
	var epoch uint64
	for i, cs := range cores {
		e, err := cs.Promote()
		if err != nil {
			return 0, fmt.Errorf("elsm: promote shard %d: %w", i, err)
		}
		if i == 0 {
			epoch = e
		}
	}
	s.replMu.Lock()
	s.tailers = nil
	s.bootErr = nil
	s.replMu.Unlock()
	s.readOnly.Store(false)
	s.obsv.Event(obs.EventPromote, -1, "follower promoted to leader at epoch %d", epoch)
	return epoch, nil
}

// ReplicationErr reports why replication failed-stop: the first
// verification or apply failure of any shard's tailer, or the error of the
// last automatic re-bootstrap attempt. Nil while every tailer is healthy
// (transport blips that reconnect, and re-bootstraps that succeeded, do
// not count), and on leaders. A failed follower keeps serving its last
// verified state; unrecoverable failures (tampering, fencing) stay down
// for the operator.
func (s *Store) ReplicationErr() error {
	s.replMu.Lock()
	bootErr := s.bootErr
	s.replMu.Unlock()
	if bootErr != nil {
		return bootErr
	}
	for _, t := range s.currentTailers() {
		if err := t.Err(); err != nil && !errors.Is(err, repl.ErrBehind) {
			return err
		}
	}
	return nil
}

// ServeCheckpoint streams shard's portable checkpoint to w — the leader
// half of the REPL_CHECKPOINT op.
func (s *Store) ServeCheckpoint(shard int, w io.Writer) error {
	src, err := s.ReplicationSource()
	if err != nil {
		return err
	}
	rc, err := src.Checkpoint(shard)
	if err != nil {
		return err
	}
	defer rc.Close()
	_, err = io.Copy(w, rc)
	return err
}

// ServeTail streams shard's committed groups from fromTs to w, blocking at
// the head — the leader half of the REPL_TAIL op. It returns when w
// fails, stop closes, the store closes, or fromTs has fallen out of the
// retained ring (repl.ErrBehind; the follower must re-bootstrap).
func (s *Store) ServeTail(shard int, fromTs uint64, w io.Writer, stop <-chan struct{}) error {
	l, err := s.tailLeader(shard)
	if err != nil {
		return err
	}
	return l.ServeTail(fromTs, w, stop)
}

// TailReady reports whether a ServeTail for (shard, fromTs) can serve at
// least its first frame: repl.ErrBehind when fromTs has fallen out of the
// retained ring, nil when the stream would start (possibly blocking at the
// head for new groups). Servers use it to answer a tail request before the
// stream goes quiet.
func (s *Store) TailReady(shard int, fromTs uint64) error {
	l, err := s.tailLeader(shard)
	if err != nil {
		return err
	}
	return l.TailReady(fromTs)
}

// tailLeader resolves shard's replication hub, creating the hubs lazily.
func (s *Store) tailLeader(shard int) (*repl.Leader, error) {
	if _, err := s.ReplicationSource(); err != nil {
		return nil, err
	}
	s.replMu.Lock()
	leaders := s.leaders
	s.replMu.Unlock()
	if shard < 0 || shard >= len(leaders) {
		return nil, fmt.Errorf("elsm: no such shard %d", shard)
	}
	return leaders[shard], nil
}

// shardCores resolves every partition's ModeP2 core store, in shard order.
func (s *Store) shardCores() ([]*core.Store, error) {
	kv := s.base()
	if r, ok := kv.(*shard.Router); ok {
		out := make([]*core.Store, r.NumShards())
		for i := range out {
			cs, ok := r.Shard(i).(*core.Store)
			if !ok {
				return nil, fmt.Errorf("elsm: shard %d is not a ModeP2 instance", i)
			}
			out[i] = cs
		}
		return out, nil
	}
	cs, ok := kv.(*core.Store)
	if !ok {
		return nil, fmt.Errorf("elsm: store is not a ModeP2 instance")
	}
	return []*core.Store{cs}, nil
}

// replStats folds replication gauges into st: follower lag and transport
// reconnects summed over the given tailers, re-bootstrap count and sealed
// epoch from the store, connected-follower count summed over this store's
// hubs.
func (s *Store) replStats(st *Stats, tailers []*repl.Tailer) {
	for _, t := range tailers {
		g, b := t.Lag()
		st.ReplLagGroups += g
		st.ReplLagBytes += b
		st.ReplReconnects += t.Reconnects()
	}
	st.ReplRebootstraps = s.rebootstraps.Load()
	if cores, err := s.shardCores(); err == nil && len(cores) > 0 {
		st.ReplEpoch = cores[0].ReplEpoch()
	}
	s.replMu.Lock()
	for _, l := range s.leaders {
		st.FollowersConnected += uint64(l.Followers())
	}
	s.replMu.Unlock()
}
