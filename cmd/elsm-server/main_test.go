package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/netsrv"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// serveStore serves store on a loopback listener the way main does and
// returns its address. Teardown is automatic.
func serveStore(t *testing.T, store *elsm.Store) string {
	t.Helper()
	cfg, err := netConfig(netsrv.DefaultMaxConnections, netsrv.DefaultPipelineDepth, netsrv.DefaultMaxInflight)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func open(t *testing.T, opts elsm.Options) *elsm.Store {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func dial(t *testing.T, addr string) *netclient.Client {
	t.Helper()
	c, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialStore serves a fresh store opened with opts and dials it.
func dialStore(t *testing.T, opts elsm.Options) (*elsm.Store, *netclient.Client) {
	t.Helper()
	store := open(t, opts)
	return store, dial(t, serveStore(t, store))
}

// scanRows drains one verified scan into "key=value" strings.
func scanRows(t *testing.T, c *netclient.Client, start, end []byte, tsq uint64) []string {
	t.Helper()
	sc, err := c.ScanAt(start, end, tsq)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for sc.Next() {
		rows = append(rows, fmt.Sprintf("%s=%s", sc.Key(), sc.Value()))
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows
}

func wantValue(t *testing.T, c *netclient.Client, key, want string) {
	t.Helper()
	res, err := c.Get([]byte(key))
	if err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	switch {
	case want == "" && res.Found:
		t.Fatalf("get %q = %q, want not found", key, res.Value)
	case want != "" && (!res.Found || string(res.Value) != want):
		t.Fatalf("get %q = %+v, want %q", key, res, want)
	}
}

// exchange writes raw request frames in one burst on a fresh connection
// and returns the single-frame responses keyed by request id (responses
// may arrive out of order).
func exchange(t *testing.T, addr string, frames ...[]byte) map[uint64]*netproto.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Join(frames, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	out := make(map[uint64]*netproto.Response)
	for range frames {
		typ, id, body, err := netproto.ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := netproto.DecodeResponse(typ, id, body)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = resp
	}
	return out
}

func frame(op netproto.Op, id uint64, body []byte) []byte {
	var b bytes.Buffer
	netproto.WriteFrame(&b, uint8(op), id, body)
	return b.Bytes()
}

func request(req *netproto.Request) []byte { return netproto.AppendRequest(nil, req) }

func TestServerProtocol(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	if _, err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put([]byte("beta"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	wantValue(t, c, "alpha", "one")
	wantValue(t, c, "missing", "")
	if got := scanRows(t, c, []byte("a"), []byte("z"), 0); fmt.Sprint(got) != "[alpha=one beta=two]" {
		t.Fatalf("scan = %v", got)
	}
	if _, err := c.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	wantValue(t, c, "alpha", "")
}

// TestServerSnapshotVerbs checks point-in-time reads over the wire: a
// ScanAt at a captured timestamp answers with the capture-time state while
// the live store moves on.
func TestServerSnapshotVerbs(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	if _, err := c.Put([]byte("alice"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	captured, err := c.Put([]byte("bob"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put([]byte("alice"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete([]byte("bob")); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(t, c, []byte("a"), []byte("z"), captured); fmt.Sprint(got) != "[alice=v1 bob=v1]" {
		t.Fatalf("scan at ts %d = %v, want both capture-time rows", captured, got)
	}
	if got := scanRows(t, c, []byte("a"), []byte("z"), 0); fmt.Sprint(got) != "[alice=v2]" {
		t.Fatalf("live scan = %v, want the overwrite and no bob", got)
	}
}

// TestServerAsyncVerbs drives pipelined writes: acknowledgments carry
// monotonic timestamps, SYNC is a barrier, and the writes are visible
// afterwards.
func TestServerAsyncVerbs(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	var futs []*netclient.Future
	for i := 1; i <= 3; i++ {
		fut, err := c.PutAsync([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	var last uint64
	for i, fut := range futs {
		ts, err := fut.Wait()
		if err != nil || ts <= last {
			t.Fatalf("async put %d: ts %d err %v, want a fresh timestamp", i, ts, err)
		}
		last = ts
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	wantValue(t, c, "k2", "v2")
}

func TestServerStats(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	if _, err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"shards", "flushes", "compactions", "background_compactions",
		"flush_stall_nanos", "compaction_stall_nanos", "pinned_runs",
		"group_commit_window_nanos", "wal_syncs", "verified_gets",
		"shard0_wal_syncs", "shard0_snapshots_open", "shard0_async_commits_in_flight",
		"net_connections",
	} {
		if _, ok := stats[name]; !ok {
			t.Fatalf("STATS missing %q (got %v)", name, stats)
		}
	}
}

// TestServerShardedStore drives the wire protocol against a 4-shard store:
// a cross-shard batch, a merged verified SCAN in key order, and the
// per-shard STATS gauges that make the topology observable.
func TestServerShardedStore(t *testing.T) {
	_, c := dialStore(t, elsm.Options{Shards: 4})
	var ops []netproto.BatchOp
	for i, k := range []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"} {
		ops = append(ops, netproto.BatchOp{Key: []byte(k), Value: []byte(fmt.Sprint(i + 1))})
	}
	if _, err := c.Batch(ops); err != nil {
		t.Fatalf("cross-shard batch: %v", err)
	}
	wantValue(t, c, "charlie", "3")
	if _, err := c.Put([]byte("alpha"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	want := "[alpha=overwritten bravo=2 charlie=3 delta=4 echo=5 foxtrot=6]"
	if got := scanRows(t, c, []byte("a"), []byte("z"), 0); fmt.Sprint(got) != want {
		t.Fatalf("merged scan = %v, want %s", got, want)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["shards"] != 4 {
		t.Fatalf("shards gauge = %d, want 4", stats["shards"])
	}
	for i := 0; i < 4; i++ {
		if _, ok := stats[fmt.Sprintf("shard%d_wal_syncs", i)]; !ok {
			t.Fatalf("per-shard STATS gauges missing for shard %d: %v", i, stats)
		}
	}
}

// TestServerBinarySafety round-trips keys and values holding spaces,
// quotes, newlines and NUL bytes, through Get and a framed SCAN.
func TestServerBinarySafety(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	pairs := [][2]string{
		{"key", "a value with spaces"},
		{"key with spaces", `"quoted" \ value`},
		{"bin\x00key\n", "line1\nline2\x00"},
	}
	for _, p := range pairs {
		if _, err := c.Put([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs {
		wantValue(t, c, p[0], p[1])
	}
	got := scanRows(t, c, []byte{0}, []byte("\xff"), 0)
	want := fmt.Sprint([]string{pairs[2][0] + "=" + pairs[2][1], "key=" + pairs[0][1], "key with spaces=" + pairs[1][1]})
	if fmt.Sprint(got) != want {
		t.Fatalf("scan = %q, want %q", got, want)
	}
}

// TestServerRejectsMalformed sends undecodable request bodies: each draws
// a typed ErrnoMalformed under its id, and none of them writes.
func TestServerRejectsMalformed(t *testing.T) {
	resps := exchange(t, serveStore(t, open(t, elsm.Options{})),
		frame(netproto.OpPut, 1, []byte{3, 'k', 'e', 'y', 9, 'v'}), // value overruns the body
		frame(netproto.OpPut, 2, []byte{3, 'k', 'e', 'y'}),         // no value
		frame(netproto.OpBatch, 3, []byte{0xff, 0xff, 0xff, 0x0f}), // count past the cap
		frame(netproto.OpGet, 4, []byte{3, 'k', 'e', 'y', 0}),      // trailing byte
		request(&netproto.Request{Op: netproto.OpGet, ID: 5, Key: []byte("key")}),
	)
	for id := uint64(1); id <= 4; id++ {
		if r := resps[id]; r == nil || r.Code != netproto.CodeErr || r.Errno != netproto.ErrnoMalformed {
			t.Fatalf("request %d answer = %+v, want ErrnoMalformed", id, r)
		}
	}
	if r := resps[5]; r == nil || r.Code != netproto.CodeNotFound {
		t.Fatalf("malformed PUTs must not write; GET = %+v", r)
	}
}

func TestServerBatchCommands(t *testing.T) {
	_, c := dialStore(t, elsm.Options{})
	put := func(k, v string) netproto.BatchOp { return netproto.BatchOp{Key: []byte(k), Value: []byte(v)} }
	if _, err := c.Batch([]netproto.BatchOp{put("a", "1"), put("b", "2"), put("c", "3")}); err != nil {
		t.Fatal(err)
	}
	wantValue(t, c, "b", "2")
	if _, err := c.Batch([]netproto.BatchOp{put("d", "4"), {Key: []byte("a"), Delete: true}, put("e", "5")}); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(t, c, []byte("a"), []byte("z"), 0); fmt.Sprint(got) != "[b=2 c=3 d=4 e=5]" {
		t.Fatalf("scan = %v", got)
	}
}

// badBatch encodes a batch body whose ops put each key before a final op
// of unknown kind, which makes the whole batch undecodable.
func badBatch(keys ...string) []byte {
	body := []byte{byte(len(keys) + 1)}
	for _, k := range keys {
		body = append(body, 0, byte(len(k)))
		body = append(body, k...)
		body = append(body, 1, 'v')
	}
	return append(body, 9)
}

// TestServerBatchAborted checks batch atomicity under a malformed op: the
// batch is refused whole and applies nothing.
func TestServerBatchAborted(t *testing.T) {
	resps := exchange(t, serveStore(t, open(t, elsm.Options{})),
		frame(netproto.OpBatch, 1, badBatch("x")),
		request(&netproto.Request{Op: netproto.OpGet, ID: 2, Key: []byte("x")}),
	)
	if r := resps[1]; r.Code != netproto.CodeErr || r.Errno != netproto.ErrnoMalformed {
		t.Fatalf("bad batch op = %+v, want ErrnoMalformed", r)
	}
	if r := resps[2]; r.Code != netproto.CodeNotFound {
		t.Fatalf("aborted batch must apply nothing; GET x = %+v", r)
	}
}

// TestServerBatchAbortDrainsPipelinedOps pipelines requests behind a
// refused batch: the batch's ops never execute, and every request after it
// is answered under its own id.
func TestServerBatchAbortDrainsPipelinedOps(t *testing.T) {
	resps := exchange(t, serveStore(t, open(t, elsm.Options{})),
		frame(netproto.OpBatch, 1, badBatch("y", "z")),
		request(&netproto.Request{Op: netproto.OpGet, ID: 2, Key: []byte("y")}),
		request(&netproto.Request{Op: netproto.OpGet, ID: 3, Key: []byte("z")}),
		request(&netproto.Request{Op: netproto.OpPut, ID: 4, Key: []byte("w"), Value: []byte("1")}),
	)
	if r := resps[1]; r.Code != netproto.CodeErr {
		t.Fatalf("bad batch = %+v, want CodeErr", r)
	}
	if resps[2].Code != netproto.CodeNotFound || resps[3].Code != netproto.CodeNotFound {
		t.Fatalf("refused batch ops leaked: %+v %+v", resps[2], resps[3])
	}
	if r := resps[4]; r.Code != netproto.CodeOK {
		t.Fatalf("request after a refused batch = %+v, want OK", r)
	}
}

// TestServerConnectionsShareCommitGroups proves the server-side write
// coalescing: batches arriving on SEPARATE connections ride the store's
// shared group-commit pipeline, so the store issues measurably fewer
// commit groups and WAL fsyncs than it served write requests. The store
// sits on sync-delayed storage (where grouping matters) with a small
// batching window so concurrent requests reliably land in shared groups.
func TestServerConnectionsShareCommitGroups(t *testing.T) {
	store := open(t, elsm.Options{
		FS:                vfs.NewSlowSync(vfs.NewMem(), 500*time.Microsecond),
		GroupCommitWindow: 2 * time.Millisecond,
	})
	addr := serveStore(t, store)

	const conns = 8
	const requestsPerConn = 10
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := netclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < requestsPerConn; i++ {
				// One request-reply batch at a time: only cross-connection
				// grouping can share an fsync.
				if _, err := client.Batch([]netproto.BatchOp{
					{Key: []byte(fmt.Sprintf("c%02d-a%02d", c, i)), Value: []byte("1")},
					{Key: []byte(fmt.Sprintf("c%02d-b%02d", c, i)), Delete: i%2 == 1},
				}); err != nil {
					errs <- fmt.Errorf("conn %d req %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := store.Stats()
	total := uint64(conns * requestsPerConn)
	if st.GroupedRecords != total*2 {
		t.Fatalf("pipeline carried %d records, want %d", st.GroupedRecords, total*2)
	}
	if st.GroupCommits >= total || st.WALSyncs >= total {
		t.Fatalf("%d write requests made %d commit groups and %d fsyncs — connections are not sharing commit groups",
			total, st.GroupCommits, st.WALSyncs)
	}
	t.Logf("%d write requests from %d connections → %d fsyncs, %d commit groups",
		total, conns, st.WALSyncs, st.GroupCommits)

	// And the coalesced writes are all there, verified.
	for c := 0; c < conns; c++ {
		res, err := store.Get([]byte(fmt.Sprintf("c%02d-a%02d", c, requestsPerConn-1)))
		if err != nil || !res.Found {
			t.Fatalf("conn %d data lost after coalesced commit: %v found=%v", c, err, res.Found)
		}
	}
}

// replOpts opens P2 stores sharing one attestation root.
func replOpts(secret string) elsm.Options {
	return elsm.Options{Platform: sgx.NewPlatformFromSecret([]byte(secret)), MemtableSize: 8 << 10, BlockSize: 512}
}

// waitValue polls store until key reads want, failing on a replication
// error or after a deadline.
func waitValue(t *testing.T, store *elsm.Store, key, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := store.ReplicationErr(); err != nil {
			t.Fatalf("replication failed: %v", err)
		}
		res, err := store.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && string(res.Value) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never read %s=%s", key, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// splitSource bootstraps from one leader and tails another.
type splitSource struct{ ckpt, tail repl.Source }

func (s splitSource) Checkpoint(shard int) (io.ReadCloser, error) { return s.ckpt.Checkpoint(shard) }
func (s splitSource) Tail(shard int, fromTs uint64) (io.ReadCloser, error) {
	return s.tail.Tail(shard, fromTs)
}

// TestServerReplProtocol drives replication end to end over the binary
// transport: a follower bootstraps from a checkpoint, tails and converges;
// a bad shard draws a typed error; a cursor behind the leader's ring draws
// repl.ErrBehind and a restarted stale follower re-bootstraps; writes to a
// follower draw ErrnoReadOnly; and after promotion through
// netclient.Promote the ex-leader's frames are fenced.
func TestServerReplProtocol(t *testing.T) {
	const secret = "server-repl-secret"
	leaderOpts := replOpts(secret)
	leaderOpts.ReplRingBytes = 4096 // a tiny ring: a burst of groups evicts it
	leader := open(t, leaderOpts)
	leaderAddr := serveStore(t, leader)
	for i := 0; i < 50; i++ {
		if _, err := leader.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	src := repl.NewNetSource(leaderAddr)

	fopts := replOpts(secret)
	fopts.FS = vfs.NewMem()
	fopts.Counter = sgx.NewMonotonicCounter()
	follower, err := elsm.OpenFollower(fopts, src)
	if err != nil {
		t.Fatalf("open follower over the wire: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := leader.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	waitValue(t, follower, "k049", "v2")

	// STATS: lag gauges on the follower, the connected follower on the
	// leader.
	lc := dial(t, leaderAddr)
	if st, err := lc.Stats(); err != nil || st["followers_connected"] < 1 {
		t.Fatalf("leader followers_connected = %d (err %v), want >= 1", st["followers_connected"], err)
	}
	fc := dial(t, serveStore(t, follower))
	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"repl_lag_groups", "repl_lag_bytes", "followers_connected"} {
		if _, ok := st[name]; !ok {
			t.Fatalf("follower STATS missing %q", name)
		}
	}

	// A write against the follower draws the read-only errno.
	var se *netclient.ServerError
	if _, err := fc.Put([]byte("x"), []byte("y")); !errors.As(err, &se) || se.Errno != netproto.ErrnoReadOnly {
		t.Fatalf("follower PUT err = %v, want ErrnoReadOnly", err)
	}
	// A bad shard is a typed error.
	if _, err := src.Checkpoint(9); !errors.As(err, &se) || se.Errno != netproto.ErrnoMalformed {
		t.Fatalf("checkpoint of shard 9 err = %v, want ErrnoMalformed", err)
	}
	// The hub was anchored after the first 50 writes, so a tail from 0 is
	// behind the ring.
	if _, err := src.Tail(0, 0); !errors.Is(err, repl.ErrBehind) {
		t.Fatalf("tail from 0 err = %v, want repl.ErrBehind", err)
	}

	// Stale follower: down while the leader moves far past the tiny ring,
	// it reopens behind, fails stop on ErrBehind and re-bootstraps.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 200; i++ {
		if _, err := leader.Put([]byte(fmt.Sprintf("gap-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	follower, err = elsm.OpenFollower(fopts, src)
	if err != nil {
		t.Fatalf("reopen stale follower: %v", err)
	}
	t.Cleanup(func() { follower.Close() })
	waitValue(t, follower, "gap-0199", string(val))
	if n := follower.Stats().ReplRebootstraps; n < 1 {
		t.Fatalf("ReplRebootstraps = %d, want >= 1", n)
	}

	// Failover over the wire: promote the follower, then a follower of the
	// promoted lineage that tails the ex-leader must reject its frames.
	fc = dial(t, serveStore(t, follower))
	epoch, err := fc.Promote()
	if err != nil || epoch == 0 {
		t.Fatalf("promote: epoch %d err %v", epoch, err)
	}
	if _, err := fc.Put([]byte("post-failover"), []byte("ok")); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	promotedAddr := serveStore(t, follower)
	if _, err := dial(t, promotedAddr).Promote(); err == nil {
		t.Fatal("promoting a leader succeeded")
	}
	if _, err := leader.Put([]byte("zombie-write"), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	fenced, err := elsm.OpenFollower(replOpts(secret), splitSource{ckpt: repl.NewNetSource(promotedAddr), tail: src})
	if err != nil {
		t.Fatalf("open follower of the promoted store: %v", err)
	}
	t.Cleanup(func() { fenced.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for !errors.Is(fenced.ReplicationErr(), repl.ErrFenced) {
		if time.Now().After(deadline) {
			t.Fatalf("ex-leader frames not fenced: ReplicationErr = %v", fenced.ReplicationErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res, err := fenced.Get([]byte("zombie-write")); err != nil || res.Found {
		t.Fatalf("stale old-epoch write visible after fencing: %+v err %v", res, err)
	}
}

// TestNetConfigFlagValidation covers the admission-control flag parsing:
// the flags default to the concrete netsrv values, so zero and negative
// settings are operator mistakes and draw descriptive errors before the
// listener starts.
func TestNetConfigFlagValidation(t *testing.T) {
	cfg, err := netConfig(1024, 64, 4096)
	if err != nil {
		t.Fatalf("default flag values rejected: %v", err)
	}
	if cfg.MaxConnections != 1024 || cfg.PipelineDepth != 64 || cfg.MaxInflight != 4096 {
		t.Fatalf("config mangled: %+v", cfg)
	}
	cases := []struct {
		maxConns, depth, inflight int
		want                      string
	}{
		{0, 64, 4096, "-max-connections must be > 0, got 0"},
		{-5, 64, 4096, "-max-connections must be > 0, got -5"},
		{1024, 0, 4096, "-pipeline-depth must be > 0, got 0"},
		{1024, -1, 4096, "-pipeline-depth must be > 0, got -1"},
		{1024, 64, 0, "-max-inflight must be > 0, got 0"},
		{1024, 64, -9, "-max-inflight must be > 0, got -9"},
	}
	for _, c := range cases {
		_, err := netConfig(c.maxConns, c.depth, c.inflight)
		if err == nil || err.Error() != c.want {
			t.Fatalf("netConfig(%d, %d, %d) err = %v, want %q",
				c.maxConns, c.depth, c.inflight, err, c.want)
		}
	}
}
