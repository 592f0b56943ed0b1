package netsrv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// startServer opens a store with opts, serves it with cfg on a loopback
// listener and returns the server and its address. Teardown is automatic.
func startServer(t *testing.T, opts elsm.Options, cfg Config) (*Server, string) {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *netclient.Client {
	t.Helper()
	c, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryProtocolRoundTrip(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ts, err := c.Put([]byte("alpha"), []byte("one"))
	if err != nil || ts == 0 {
		t.Fatalf("put: ts %d err %v", ts, err)
	}
	res, err := c.Get([]byte("alpha"))
	if err != nil || !res.Found || string(res.Value) != "one" || res.Ts != ts {
		t.Fatalf("get: %+v err %v", res, err)
	}
	if res, err := c.Get([]byte("missing")); err != nil || res.Found {
		t.Fatalf("get missing: %+v err %v", res, err)
	}
	if _, err := c.Batch([]netproto.BatchOp{
		{Key: []byte("beta"), Value: []byte("two")},
		{Key: []byte("gamma"), Value: []byte("three")},
		{Key: []byte("alpha"), Delete: true},
	}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || res.Found {
		t.Fatalf("deleted key still visible: %+v err %v", res, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	sc, err := c.Scan(nil, []byte("\xff"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var keys []string
	for sc.Next() {
		keys = append(keys, string(sc.Key()))
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("scan close: %v", err)
	}
	if want := []string{"beta", "gamma"}; strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("scan keys = %v, want %v", keys, want)
	}

	if _, err := c.Delete([]byte("beta")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res, err := c.Get([]byte("beta")); err != nil || res.Found {
		t.Fatalf("beta survived delete: %+v err %v", res, err)
	}
}

// TestScanStreamsChunks pushes a range past one chunk so the multi-frame
// path (several CodeRows, one CodeScanEnd) is exercised end to end.
func TestScanStreamsChunks(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)
	const n = scanChunkRows*2 + 17
	for i := 0; i < n; i++ {
		if _, err := c.Put(fmt.Appendf(nil, "key%06d", i), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	sc, err := c.Scan(nil, []byte("\xff"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	count := 0
	for sc.Next() {
		count++
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("scan close: %v", err)
	}
	if count != n {
		t.Fatalf("scanned %d rows, want %d", count, n)
	}
}

// TestStatsGaugesMove is the satellite check: the net_* gauges must move
// under traffic, over the wire, through the STATS op.
func TestStatsGaugesMove(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)

	// Pipeline a burst so the depth high-water mark can exceed 1.
	var futs []*netclient.Future
	for i := 0; i < 32; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "k%03d", i), []byte("v"))
		if err != nil {
			t.Fatalf("putasync: %v", err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}

	m, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, name := range []string{
		"net_connections", "net_inflight_requests", "net_busy_rejects",
		"net_bytes_in", "net_bytes_out", "net_pipeline_depth_hwm",
	} {
		if _, ok := m[name]; !ok {
			t.Fatalf("STATS missing gauge %q", name)
		}
	}
	if m["net_connections"] != 1 {
		t.Fatalf("net_connections = %d, want 1", m["net_connections"])
	}
	if m["net_bytes_in"] == 0 || m["net_bytes_out"] == 0 {
		t.Fatalf("byte gauges did not move: in %d out %d", m["net_bytes_in"], m["net_bytes_out"])
	}
	if m["net_pipeline_depth_hwm"] == 0 {
		t.Fatalf("pipeline depth HWM stayed 0 under a 32-deep burst")
	}
	// The STATS request itself is in flight while being answered.
	if m["net_inflight_requests"] == 0 {
		t.Fatalf("net_inflight_requests = 0 while serving STATS")
	}
	// The in-process snapshot agrees.
	if s := srv.Stats(); s.Connections != 1 || s.BytesIn == 0 {
		t.Fatalf("Server.Stats() = %+v, want live connection and traffic", s)
	}
}

// TestConnectionCapSheds verifies the first admission layer: a connection
// over MaxConnections draws one BUSY frame (id 0) and is closed, and the
// reject is counted.
func TestConnectionCapSheds(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{}, Config{MaxConnections: 1})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("first connection ping: %v", err)
	}

	c2, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	if err := c2.Ping(); !errors.Is(err, netclient.ErrBusy) {
		t.Fatalf("over-cap ping err = %v, want ErrBusy", err)
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("connection shed not counted in BusyRejects")
	}
	// The admitted connection is unaffected.
	if err := c.Ping(); err != nil {
		t.Fatalf("admitted connection broken by shed: %v", err)
	}
}

// TestGlobalInflightBudgetSheds verifies the second admission layer:
// requests past MaxInflight draw CodeBusy immediately while the admitted
// request completes fine.
func TestGlobalInflightBudgetSheds(t *testing.T) {
	// A long group-commit window makes the first write hold its in-flight
	// slot long enough for the follow-up burst to hit the exhausted budget
	// deterministically.
	srv, addr := startServer(t,
		elsm.Options{GroupCommitWindow: 150 * time.Millisecond},
		Config{MaxInflight: 1, PipelineDepth: 16})
	c := dial(t, addr)

	slow, err := c.PutAsync([]byte("slow"), []byte("write"))
	if err != nil {
		t.Fatalf("putasync: %v", err)
	}
	var busy int
	for i := 0; i < 8; i++ {
		fut, err := c.GetAsync([]byte("slow"))
		if err != nil {
			t.Fatalf("getasync: %v", err)
		}
		if _, err := fut.Wait(); errors.Is(err, netclient.ErrBusy) {
			busy++
		}
	}
	if busy == 0 {
		t.Fatalf("no request shed with MaxInflight 1 and a slot held for 150ms")
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("admitted write failed: %v", err)
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("budget sheds not counted")
	}
}

// TestCommitBacklogSheds verifies the third admission layer: when the
// engine's MaxAsyncCommitBacklog gate stays full past AdmissionWait, the
// write is shed with BUSY instead of camping on the gate. Slow fsyncs keep
// the single backlog slot occupied.
func TestCommitBacklogSheds(t *testing.T) {
	srv, addr := startServer(t,
		elsm.Options{
			FS:                    vfs.NewSlowSync(vfs.NewMem(), 100*time.Millisecond),
			MaxAsyncCommitBacklog: 1,
		},
		Config{AdmissionWait: 5 * time.Millisecond})
	c := dial(t, addr)

	var futs []*netclient.Future
	for i := 0; i < 8; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "k%d", i), []byte("v"))
		if err != nil {
			t.Fatalf("putasync: %v", err)
		}
		futs = append(futs, fut)
	}
	var ok, busy int
	for _, fut := range futs {
		_, err := fut.Wait()
		switch {
		case err == nil:
			ok++
		case errors.Is(err, netclient.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected write error: %v", err)
		}
	}
	if ok == 0 {
		t.Fatalf("every write shed; the admitted path never completed")
	}
	if busy == 0 {
		t.Fatalf("no write shed with backlog 1, 100ms fsyncs and 5ms AdmissionWait")
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("backlog sheds not counted")
	}
	// The connection survives shedding: a fresh write succeeds.
	if _, err := c.Put([]byte("after"), []byte("shed")); err != nil {
		t.Fatalf("write after shed: %v", err)
	}
}

// TestSlowClientTornDown is the slow-client satellite: a client that
// requests a large scan and never reads must lose its connection via the
// write deadline, without wedging the server.
func TestSlowClientTornDown(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{},
		Config{ResponseBuffer: 1, WriteTimeout: 200 * time.Millisecond})

	// Preload enough rows that the scan overwhelms socket + response
	// buffers while the client refuses to read.
	load, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	val := bytes.Repeat([]byte("x"), 4096)
	for base := 0; base < 2000; base += 200 {
		ops := make([]netproto.BatchOp, 200)
		for i := range ops {
			ops[i] = netproto.BatchOp{Key: fmt.Appendf(nil, "key%08d", base+i), Value: val}
		}
		if _, err := load.Batch(ops); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	load.Close()

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	frame := netproto.AppendRequest(nil, &netproto.Request{
		Op: netproto.OpScan, ID: 1, Start: nil, End: []byte("\xff"),
	})
	if _, err := stalled.Write(frame); err != nil {
		t.Fatalf("write scan: %v", err)
	}
	// Never read. The server's write deadline must fire and untrack the
	// connection; poll the gauge instead of draining the socket.
	deadline := time.Now().Add(8 * time.Second)
	for srv.Stats().Connections != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server kept serving a stalled client past the deadline: %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The socket really was torn down: draining it bottoms out in an error.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(buf); err != nil {
			break // reset/EOF — what we want; a deadline error would fail below
		}
	}

	// The server is still healthy for everyone else.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after slow-client teardown: %v", err)
	}
}

// TestFrameFaultsAnswered sends framing-level garbage and asserts the
// typed error comes back under the salvaged id with the connection intact.
func TestFrameFaultsAnswered(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Oversized frame: declared 17MB payload, salvageable prefix, then a
	// valid PING. The payload must be discarded, the fault answered under
	// id 7, and the PING answered after it.
	var hdr [13]byte
	size := netproto.MaxFrame + 1
	hdr[0] = byte(size >> 24)
	hdr[1] = byte(size >> 16)
	hdr[2] = byte(size >> 8)
	hdr[3] = byte(size)
	hdr[4] = uint8(netproto.OpPut)
	hdr[12] = 7 // big-endian id 7
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, size-9)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(netproto.AppendRequest(nil, &netproto.Request{Op: netproto.OpPing, ID: 8})); err != nil {
		t.Fatal(err)
	}

	typ, id, body, err := netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("read fault answer: %v", err)
	}
	resp, err := netproto.DecodeResponse(typ, id, body)
	if err != nil {
		t.Fatalf("decode fault answer: %v", err)
	}
	if resp.Code != netproto.CodeErr || resp.ID != 7 || resp.Errno != netproto.ErrnoFrameTooLarge {
		t.Fatalf("fault answer = %+v, want CodeErr/ErrnoFrameTooLarge under id 7", resp)
	}
	typ, id, _, err = netproto.ReadFrame(br, 0)
	if err != nil || netproto.Code(typ) != netproto.CodePong || id != 8 {
		t.Fatalf("connection did not survive: typ %d id %d err %v", typ, id, err)
	}

	// Unknown opcode and malformed body: typed errors, connection stays.
	if _, err := conn.Write(netproto.AppendRequest(nil, &netproto.Request{Op: 0x19, ID: 9})); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err = netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := netproto.DecodeResponse(typ, id, body); err != nil ||
		resp.Code != netproto.CodeErr || resp.ID != 9 || resp.Errno != netproto.ErrnoUnknownOp {
		t.Fatalf("unknown-op answer = %+v err %v", resp, err)
	}
	if err := netproto.WriteFrame(conn, uint8(netproto.OpPut), 10, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err = netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := netproto.DecodeResponse(typ, id, body); err != nil ||
		resp.Code != netproto.CodeErr || resp.ID != 10 || resp.Errno != netproto.ErrnoMalformed {
		t.Fatalf("malformed-body answer = %+v err %v", resp, err)
	}
}

// TestReplTailFreedOnPeerClose closes tails idling at the head of a quiet
// leader — a raw stream, then a follower's. Heartbeats are slowed past the
// test's deadline, so no stream write can notice the dead peer: only the
// reader cancelling the connection's context on peer close frees the
// stream, and the leader's followers_connected must return to 0. The slow
// heartbeat also proves the tail request is answered before the first
// heartbeat.
func TestReplTailFreedOnPeerClose(t *testing.T) {
	oldHB := repl.HeartbeatInterval
	repl.HeartbeatInterval = time.Minute
	defer func() { repl.HeartbeatInterval = oldHB }()

	platform := func() *sgx.Platform { return sgx.NewPlatformFromSecret([]byte("tail-close")) }
	srv, addr := startServer(t, elsm.Options{Platform: platform()}, Config{})
	head, err := srv.store.Put([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	connected := func() uint64 { return srv.store.Stats().FollowersConnected }

	// A tail at the head is answered at once, not at the first heartbeat.
	rc, err := repl.NewNetSource(addr).Tail(0, head)
	if err != nil {
		t.Fatalf("tail at the head of an idle leader: %v", err)
	}
	waitFor(t, "the tail to attach", func() bool { return connected() == 1 })
	rc.Close()
	waitFor(t, "the raw tail to detach", func() bool { return connected() == 0 })

	follower, err := elsm.OpenFollower(elsm.Options{Platform: platform()}, repl.NewNetSource(addr))
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	waitFor(t, "the follower's tail to attach", func() bool { return connected() == 1 })
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "followers_connected to return to 0", func() bool { return connected() == 0 })
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConfigValidation mirrors the elsm.Options validation style: zero
// means default, negatives draw descriptive errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{MaxConnections: -1}, "netsrv: MaxConnections must be ≥ 0 (0 = the default 1024), got -1"},
		{Config{PipelineDepth: -2}, "netsrv: PipelineDepth must be ≥ 0 (0 = the default 64), got -2"},
		{Config{MaxInflight: -3}, "netsrv: MaxInflight must be ≥ 0 (0 = the default 4096), got -3"},
		{Config{ResponseBuffer: -4}, "netsrv: ResponseBuffer must be ≥ 0 (0 = the default 64), got -4"},
		{Config{WriteTimeout: -time.Second}, "netsrv: WriteTimeout must be ≥ 0 (0 = the default 30s), got -1s"},
		{Config{AdmissionWait: -time.Millisecond}, "netsrv: AdmissionWait must be ≥ 0 (0 = the default 50ms), got -1ms"},
	}
	for _, c := range cases {
		_, err := New(nil, c.cfg)
		if err == nil || err.Error() != c.want {
			t.Fatalf("New(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
	}
}

// TestConcurrentConnections exercises the full pipeline under -race: many
// connections pipelining writes and reads at once against one store.
func TestConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, elsm.Options{Shards: 2}, Config{})
	const conns = 8
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(id int) {
			errCh <- func() error {
				c, err := netclient.Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				var futs []*netclient.Future
				for j := 0; j < 50; j++ {
					fut, err := c.PutAsync(fmt.Appendf(nil, "c%02d-k%03d", id, j), []byte("v"))
					if err != nil {
						return err
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						return err
					}
				}
				res, err := c.Get(fmt.Appendf(nil, "c%02d-k%03d", id, 49))
				if err != nil {
					return err
				}
				if !res.Found {
					return fmt.Errorf("conn %d: own write missing", id)
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < conns; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
