package elsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elsm/internal/vfs"
)

// snapshotChurnOptions builds a store geometry small enough that the churn
// phase forces real flushes, compactions and WAL rotations.
func snapshotChurnOptions(mode Mode, fs vfs.FS) Options {
	opts := testOptions(mode)
	opts.FS = fs
	opts.KeepVersions = 1 // version GC: compaction really rewrites history
	return opts
}

// sstFiles counts SSTable files on the untrusted FS.
func sstFiles(t *testing.T, fs vfs.FS) int {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			n++
		}
	}
	return n
}

// TestSnapshotPinnedUnderChurn is the acceptance scenario: open a snapshot,
// then force flush + compaction + WAL rotation underneath it, and prove —
// in all three modes — that the snapshot's reads stay verified and
// byte-identical, that the live store moved on, and that Close releases the
// run refcounts (replaced run files are actually deleted, no leaks).
func TestSnapshotPinnedUnderChurn(t *testing.T) {
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			s, err := Open(snapshotChurnOptions(mode, fs))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const keys = 60
			for i := 0; i < keys; i++ {
				if _, err := s.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v1-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Put some of the dataset on disk so the snapshot pins runs,
			// not just memtables.
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := s.Put([]byte(fmt.Sprintf("mem%03d", i)), []byte("buffered")); err != nil {
					t.Fatal(err)
				}
			}

			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			before, err := snap.Scan([]byte("a"), []byte("z"))
			if err != nil {
				t.Fatal(err)
			}
			if len(before) != keys+10 {
				t.Fatalf("snapshot scan = %d results, want %d", len(before), keys+10)
			}
			snapTs := snap.Ts()

			// Churn: overwrite every key (several times, forcing flushes and
			// the compaction cascade — each Flush also rotates and deletes
			// WAL files), delete some, add new ones.
			for round := 0; round < 3; round++ {
				for i := 0; i < keys; i++ {
					if _, err := s.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v2-r%d-%03d", round, i))); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				if _, err := s.Delete([]byte(fmt.Sprintf("mem%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil { // settles overflowing levels too
				t.Fatal(err)
			}
			if st := s.Stats(); st.Compactions == 0 && mode != ModeUnsecured {
				t.Logf("note: churn produced no compaction (flushes=%d)", st.Flushes)
			}

			// The snapshot must replay its original view bit for bit.
			after, err := snap.Scan([]byte("a"), []byte("z"))
			if err != nil {
				t.Fatalf("snapshot scan after churn: %v", err)
			}
			if len(after) != len(before) {
				t.Fatalf("snapshot scan changed size after churn: %d -> %d", len(before), len(after))
			}
			for i := range before {
				if !bytes.Equal(before[i].Key, after[i].Key) ||
					!bytes.Equal(before[i].Value, after[i].Value) ||
					before[i].Ts != after[i].Ts {
					t.Fatalf("snapshot drifted at %d: %q/%q ts %d -> %q/%q ts %d",
						i, before[i].Key, before[i].Value, before[i].Ts,
						after[i].Key, after[i].Value, after[i].Ts)
				}
			}
			for i := 0; i < keys; i += 7 {
				res, err := snap.Get([]byte(fmt.Sprintf("key%03d", i)))
				if err != nil {
					t.Fatalf("snapshot get after churn: %v", err)
				}
				if want := fmt.Sprintf("v1-%03d", i); !res.Found || string(res.Value) != want {
					t.Fatalf("snapshot get key%03d = %q found=%v, want %q", i, res.Value, res.Found, want)
				}
			}
			if snap.Ts() != snapTs {
				t.Fatalf("snapshot Ts drifted: %d -> %d", snapTs, snap.Ts())
			}
			// The live store sees the churned state, not the snapshot's.
			live, err := s.Get([]byte("key000"))
			if err != nil || !live.Found || !strings.HasPrefix(string(live.Value), "v2-r2-") {
				t.Fatalf("live get = %q found=%v err=%v, want v2-r2-*", live.Value, live.Found, err)
			}
			if got := s.Stats().SnapshotsOpen; got == 0 {
				t.Fatal("SnapshotsOpen gauge is 0 with a snapshot open")
			}

			// Close must release the pins: the replaced runs' files — kept
			// alive only for the snapshot — are deleted, and the gauges
			// return to zero. Quiesce first so no in-flight background
			// compaction skews the pin gauge or the file counts.
			if err := s.WaitMaintenance(); err != nil {
				t.Fatal(err)
			}
			pinnedFiles := sstFiles(t, fs)
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if err := snap.Close(); err != nil { // idempotent
				t.Fatal(err)
			}
			st := s.Stats()
			if st.SnapshotsOpen != 0 || st.PinnedRuns != 0 {
				t.Fatalf("after snapshot close: SnapshotsOpen=%d PinnedRuns=%d, want 0/0", st.SnapshotsOpen, st.PinnedRuns)
			}
			if got := sstFiles(t, fs); got >= pinnedFiles {
				t.Fatalf("snapshot close released no files: %d before, %d after (leaked run files)", pinnedFiles, got)
			}
		})
	}
}

// TestSnapshotIteratorOutlivesClose opens an iterator from a snapshot,
// closes the snapshot mid-stream, and checks the stream still completes
// verified (iterators hold their own pins).
func TestSnapshotIteratorOutlivesClose(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	it := snap.Iter([]byte("a"), []byte("z"))
	if !it.Next() {
		t.Fatal("empty snapshot stream")
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("stream after snapshot close = %d results, want 40", n)
	}
	// Quiesce: an in-flight background job legitimately pins its inputs.
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapshotsOpen != 0 || st.PinnedRuns != 0 {
		t.Fatalf("pins leaked: SnapshotsOpen=%d PinnedRuns=%d", st.SnapshotsOpen, st.PinnedRuns)
	}
}

// TestSnapshotHistoricalReads checks GetAt/IterAt within a snapshot and the
// clamping of future timestamps to the snapshot frontier.
func TestSnapshotHistoricalReads(t *testing.T) {
	s, err := Open(Options{}) // defaults: full version history
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts1, err := s.Put([]byte("k"), []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("k"), []byte("mid")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := s.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}

	if res, err := snap.GetAt([]byte("k"), ts1); err != nil || string(res.Value) != "old" {
		t.Fatalf("snapshot historical get = %q err=%v, want old", res.Value, err)
	}
	// A timestamp beyond the snapshot clamps to the snapshot's state.
	if res, err := snap.GetAt([]byte("k"), snap.Ts()+100); err != nil || string(res.Value) != "mid" {
		t.Fatalf("snapshot clamped get = %q err=%v, want mid", res.Value, err)
	}
	if res, err := s.Get([]byte("k")); err != nil || string(res.Value) != "new" {
		t.Fatalf("live get = %q err=%v, want new", res.Value, err)
	}
}

// TestCommitAsyncAcknowledgeResolveSync exercises the async durability
// contract: acknowledgment carries the trusted timestamp, Sync is the
// barrier, resolution makes the write visible, and the in-flight gauge
// drains to zero.
func TestCommitAsyncAcknowledgeResolveSync(t *testing.T) {
	fs := vfs.NewSlowSync(vfs.NewMem(), 200*time.Microsecond)
	opts := testOptions(ModeP2)
	opts.FS = fs
	opts.MemtableSize = 1 << 20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var futs []*CommitFuture
	var lastTs uint64
	for i := 0; i < 50; i++ {
		b := s.NewBatch()
		b.Put([]byte(fmt.Sprintf("async%03d", i)), []byte(fmt.Sprintf("v%d", i)))
		fut, err := b.CommitAsync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := fut.Ts(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ts <= lastTs {
			t.Fatalf("async commit %d acknowledged ts %d, not after %d", i, ts, lastTs)
		}
		lastTs = ts
		if b.Len() != 0 {
			t.Fatal("batch not reusable after CommitAsync")
		}
		futs = append(futs, fut)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		select {
		case <-fut.Done():
		default:
			t.Fatalf("future %d unresolved after Sync", i)
		}
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("future %d failed: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		res, err := s.Get([]byte(fmt.Sprintf("async%03d", i)))
		if err != nil || !res.Found {
			t.Fatalf("async write %d not readable: found=%v err=%v", i, res.Found, err)
		}
	}
	if got := s.Stats().AsyncCommitsInFlight; got != 0 {
		t.Fatalf("AsyncCommitsInFlight = %d after Sync, want 0", got)
	}
}

// TestCtxCancelMidCommitQueue fills the durability pipeline on slow-fsync
// storage, queues one more write, cancels it while it is still waiting in
// the commit queue, and checks it is withdrawn: the caller gets
// context.Canceled and the key never becomes visible.
func TestCtxCancelMidCommitQueue(t *testing.T) {
	fs := vfs.NewSlowSync(vfs.NewMem(), 50*time.Millisecond)
	opts := testOptions(ModeP2)
	opts.FS = fs
	opts.MemtableSize = 1 << 20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy both pipeline slots (and the fsync) with async commits.
	for i := 0; i < 4; i++ {
		b := s.NewBatch()
		b.Put([]byte(fmt.Sprintf("filler%d", i)), []byte("v"))
		if _, err := b.CommitAsync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.PutCtx(ctx, []byte("cancelled-key"), []byte("should-not-land"))
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the put reach the queue, not the worker
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			// The worker may have claimed it first — then it must have
			// committed successfully. Both outcomes are legal; only a
			// cancellation error with a visible write is a bug.
			if err != nil {
				t.Fatalf("cancelled put failed with %v, want context.Canceled or success", err)
			}
			return
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled put never returned")
	}
	// Withdrawn: even after full durability, the key must not exist.
	if err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Get([]byte("cancelled-key"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("withdrawn (cancelled) write became visible")
	}
}

// TestCtxCancelMidIterator cancels a context in the middle of a verified
// stream and checks the iterator stops with the cancellation error, in all
// three modes.
func TestCtxCancelMidIterator(t *testing.T) {
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := testOptions(mode)
			opts.IterChunkKeys = 8 // many chunks: the cancel lands mid-stream
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 200; i++ {
				if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			it := s.IterCtx(ctx, []byte("a"), []byte("z"))
			n := 0
			for it.Next() {
				n++
				if n == 20 {
					cancel()
				}
			}
			if n >= 200 {
				t.Fatalf("iterator ran to completion (%d results) despite cancellation", n)
			}
			if err := it.Close(); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled iterator Close = %v, want context.Canceled", err)
			}
			// Pins released despite the abort. Quiesce first: an in-flight
			// background compaction legitimately pins its input runs.
			if err := s.WaitMaintenance(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.PinnedRuns != 0 {
				t.Fatalf("aborted iterator leaked %d run pins", st.PinnedRuns)
			}
		})
	}
}

// TestCtxCancelMidMemtableIterator is the deterministic form of
// TestCtxCancelMidIterator: every row stays in the memtable (nothing
// flushes), so no background flush can split the range into run-sized
// chunks. The memtable's share of a chunk must still be bounded by
// IterChunkKeys — a cancel after row 20 stops the stream within the one
// chunk per shard already delivered — in every mode, sharded or not.
func TestCtxCancelMidMemtableIterator(t *testing.T) {
	const rows, chunkKeys, cancelAt = 200, 8, 20
	for _, shards := range []int{1, 4} {
		for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				opts := shardedOptions(mode, shards)
				opts.MemtableSize = 1 << 20
				opts.IterChunkKeys = chunkKeys
				s, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i := 0; i < rows; i++ {
					if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				if st := s.Stats(); st.Flushes != 0 {
					t.Fatalf("%d flushes ran; the rows must stay in the memtable", st.Flushes)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				it := s.IterCtx(ctx, []byte("a"), []byte("z"))
				n := 0
				for it.Next() {
					n++
					if n == cancelAt {
						cancel()
					}
				}
				if limit := cancelAt + chunkKeys*shards; n > limit {
					t.Fatalf("%d rows streamed after a cancel at row %d (limit %d): a chunk held more than %d memtable keys",
						n, cancelAt, limit, chunkKeys)
				}
				if err := it.Close(); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled iterator Close = %v, want context.Canceled", err)
				}
			})
		}
	}
}

// TestCtxCancellationRaceStress hammers the two cancellation paths under
// the race detector: concurrent writers with randomly-cancelled commit
// contexts and concurrent readers with randomly-cancelled iterators, over
// live flush/compaction churn.
func TestCtxCancellationRaceStress(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.IterChunkKeys = 8
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("seed%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 0 {
					cancel() // already-cancelled commits must be clean no-ops
				}
				_, err := s.PutCtx(ctx, []byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v"))
				if err != nil && !errors.Is(err, context.Canceled) {
					errCh <- err
					cancel()
					return
				}
				cancel()
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				it := s.IterCtx(ctx, []byte("a"), []byte("z"))
				n := 0
				for it.Next() {
					n++
					if n == (r+1)*5 {
						cancel()
					}
				}
				err := it.Close()
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Quiesce background maintenance first: with the parallel scheduler an
	// in-flight compaction legitimately pins its input runs, and this
	// assertion is about pins LEAKED by the cancellation paths.
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PinnedRuns != 0 || st.SnapshotsOpen != 0 {
		t.Fatalf("stress leaked pins: PinnedRuns=%d SnapshotsOpen=%d", st.PinnedRuns, st.SnapshotsOpen)
	}
}
