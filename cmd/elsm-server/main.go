// Command elsm-server exposes an authenticated eLSM store over TCP
// (stdlib net only), modelling the paper's trusted cloud application
// serving verified reads and durable writes to remote clients.
//
// The wire protocol is the length-prefixed framed protocol of
// internal/netproto, with per-connection request pipelining, admission
// control and out-of-order responses — see internal/netsrv for the
// serving model and internal/netclient for the client. One connection
// carries many concurrent requests, and writes from all connections
// coalesce into shared group-commit fsyncs. The request ops:
//
//	PUT, DEL, BATCH        durable writes            -> OK <ts>
//	GET                    verified point read       -> VALUE <ts> <value> | NOTFOUND
//	SCAN [start,end]@tsq   verified range read       -> ROWS chunks, then SCAN_END <n>
//	SYNC                   durability barrier        -> OK
//	STATS                  every gauge               -> STATS
//	PING                   liveness                  -> PONG
//	REPL_CHECKPOINT shard  portable verified checkpoint as CHUNK frames,
//	                       then SCAN_END <bytes>
//	REPL_TAIL shard fromTs attested commit groups as CHUNK frames while the
//	                       follower stays (an empty chunk first, once the
//	                       stream can start), or ERR with errno BEHIND:
//	                       re-bootstrap
//	PROMOTE                failover promotion        -> OK <epoch>
//
// Every failure is a typed ERR frame (errno + message) that leaves the
// connection usable; malformed or oversized frames are answered, not
// fatal. Every response reflects verified state: reads and scans flow
// through the enclave's authenticated structures, and a tampering host
// surfaces as a typed error terminating the response rather than wrong
// data.
//
// Writes from separate connections ride the store's shared group-commit
// pipeline; pipelining within one connection lets a single client's
// concurrent requests coalesce too.
// -commit-window adds a deliberate batching delay for fsync-bound
// deployments; -commit-max-ops caps group size (1 disables coalescing).
//
// -shards N partitions the store into N hash-partitioned authenticated
// instances behind the router: concurrent connections spread across N
// commit pipelines, SCAN merges the per-shard verified streams, and STATS
// reports both aggregate and per-shard (shardN_*) gauges.
//
// Admission control: -max-connections bounds concurrent connections,
// -pipeline-depth bounds requests in flight per connection, -max-inflight
// bounds them globally. Excess load is shed with a typed
// BUSY response instead of queueing without bound; STATS exposes the
// net_* gauges behind each limit.
//
// Observability: -admin starts an HTTP admin endpoint serving /metrics
// (Prometheus text format: every STATS gauge plus latency-histogram
// summaries with per-shard labels), /debug/pprof/* (the standard Go
// profiles), and the trace/slow-op/event rings as JSON at /traces and
// /events. A scrape is one GET:
//
//	curl http://127.0.0.1:7879/metrics
//
// The endpoint is plaintext and unauthenticated; bind it to localhost
// (as in the example) and put a reverse proxy in front if it must be
// reachable remotely. -slow-op-threshold and -trace-sample-every tune
// what the rings capture; instrumentation is cheap enough to stay on.
//
// With -repl-secret the server becomes a replication leader: followers
// bootstrap over REPL_CHECKPOINT and stay current over REPL_TAIL on the
// same port as clients, every stream attested against the shared secret
// (the stand-in for remote attestation). With -follow the server opens as
// a read-only replica of that leader: reads verify against the follower's
// own Merkle forest, writes draw typed read-only errors, and STATS exposes
// repl_lag_groups / repl_lag_bytes. A PROMOTE request (netclient.Promote)
// fails a follower over into a writable leader; frames from the deposed
// leader's epoch are fenced from then on.
//
// Usage: elsm-server [-addr :7878] [-dir /path/to/data] [-mode p2|p1|unsecured]
//
//	[-shards 1] [-commit-window 0] [-commit-max-ops 0]
//	[-max-connections 1024] [-pipeline-depth 64] [-max-inflight 4096]
//	[-iter-chunk-keys 0] [-repl-secret s] [-follow leader:7878]
//	[-admin 127.0.0.1:7879] [-slow-op-threshold 0] [-trace-sample-every 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"elsm"
	"elsm/internal/netsrv"
	"elsm/internal/sgx"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7878", "listen address")
		dir          = flag.String("dir", "", "data directory (empty: in-memory)")
		mode         = flag.String("mode", "p2", "store mode: p2 | p1 | unsecured")
		shards       = flag.Int("shards", 1, "hash-partitioned shard count (power of two; each shard runs its own WAL, committer and maintenance worker)")
		commitWindow = flag.Duration("commit-window", 0, "group-commit batching window (0: natural batching only, -1ns: adaptive from fsync latency)")
		commitMaxOps = flag.Int("commit-max-ops", 0, "max operations per commit group (0: unbounded, 1: no coalescing)")
		chunkKeys    = flag.Int("iter-chunk-keys", 0, "keys per streamed SCAN chunk (0: default)")
		inlineComp   = flag.Bool("inline-compaction", false, "run flush/compaction inline on the commit path (ablation baseline; stalls writers)")
		compWorkers  = flag.Int("compaction-workers", 0, "maintenance worker pool size shared across shards (0: max(2, GOMAXPROCS/2))")
		maxConns     = flag.Int("max-connections", netsrv.DefaultMaxConnections, "max concurrent client connections; further connects are shed with BUSY")
		pipeDepth    = flag.Int("pipeline-depth", netsrv.DefaultPipelineDepth, "max pipelined requests in flight per connection")
		maxInflight  = flag.Int("max-inflight", netsrv.DefaultMaxInflight, "max requests in flight across all connections; excess is shed with BUSY")
		follow       = flag.String("follow", "", "run as a read-only replica of the leader at this address (requires -repl-secret and mode p2)")
		replSecret   = flag.String("repl-secret", "", "shared attestation secret binding leader and followers (stands in for remote attestation; required with -follow, enables the leader's replication ops)")
		adminAddr    = flag.String("admin", "", "observability HTTP listen address (e.g. 127.0.0.1:7879) serving /metrics, /debug/pprof/*, /traces and /events; empty disables. Plaintext and unauthenticated — keep it on localhost or behind a proxy")
		slowOp       = flag.Duration("slow-op-threshold", 0, "end-to-end latency above which a commit group's stage breakdown lands in the slow-op log (0: the 50ms default)")
		traceEvery   = flag.Int("trace-sample-every", 0, "trace every Nth commit group through the pipeline (0: the default 64; 1: every group)")
	)
	flag.Parse()

	opts := elsm.Options{
		Dir:               *dir,
		Shards:            *shards,
		GroupCommitWindow: *commitWindow,
		GroupCommitMaxOps: *commitMaxOps,
		IterChunkKeys:     *chunkKeys,
		InlineCompaction:  *inlineComp,
		CompactionWorkers: *compWorkers,
		SlowOpThreshold:   *slowOp,
		TraceSampleEvery:  *traceEvery,
	}
	switch *mode {
	case "p2":
		opts.Mode = elsm.ModeP2
	case "p1":
		opts.Mode = elsm.ModeP1
		opts.CacheSize = 8 << 20
	case "unsecured":
		opts.Mode = elsm.ModeUnsecured
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	if *replSecret != "" {
		opts.Platform = sgx.NewPlatformFromSecret([]byte(*replSecret))
	}
	var store *elsm.Store
	var err error
	if *follow != "" {
		if *replSecret == "" {
			log.Fatal("-follow requires -repl-secret (the shared attestation root)")
		}
		store, err = elsm.OpenFollower(opts, elsm.NewFollowerSource(*follow))
	} else {
		store, err = elsm.Open(opts)
	}
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer store.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	role := "leader"
	if store.IsFollower() {
		role = fmt.Sprintf("follower of %s", *follow)
	}
	log.Printf("elsm-server (%s, %d shard(s), %s) listening on %s",
		store.Mode(), store.Shards(), role, ln.Addr())

	cfg, err := netConfig(*maxConns, *pipeDepth, *maxInflight)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		log.Fatalf("server config: %v", err)
	}
	startAdmin(*adminAddr, srv)
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// startAdmin starts the opt-in observability HTTP listener. The handler
// is plaintext and unauthenticated by design (diagnostics, not data), so
// the operator guidance is a localhost bind; a non-loopback bind is the
// operator's explicit choice and gets a log warning rather than a
// refusal.
func startAdmin(addr string, srv *netsrv.Server) {
	if addr == "" {
		return
	}
	aln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("admin listen: %v", err)
	}
	if ta, ok := aln.Addr().(*net.TCPAddr); ok && !ta.IP.IsLoopback() {
		log.Printf("WARNING: admin endpoint on non-loopback %s is plaintext and unauthenticated; front it with a proxy", aln.Addr())
	}
	log.Printf("admin endpoint on http://%s (/metrics /debug/pprof/ /traces /events)", aln.Addr())
	go func() {
		if err := http.Serve(aln, srv.AdminHandler()); err != nil {
			log.Printf("admin serve: %v", err)
		}
	}()
}

// netConfig validates the admission-control flags into a netsrv.Config.
// Unlike netsrv.Config (where zero means "use the default"), the flags
// default to the concrete values, so a zero or negative here is always an
// operator mistake and is rejected before the listener starts.
func netConfig(maxConns, pipeDepth, maxInflight int) (netsrv.Config, error) {
	if maxConns <= 0 {
		return netsrv.Config{}, fmt.Errorf("-max-connections must be > 0, got %d", maxConns)
	}
	if pipeDepth <= 0 {
		return netsrv.Config{}, fmt.Errorf("-pipeline-depth must be > 0, got %d", pipeDepth)
	}
	if maxInflight <= 0 {
		return netsrv.Config{}, fmt.Errorf("-max-inflight must be > 0, got %d", maxInflight)
	}
	return netsrv.Config{
		MaxConnections: maxConns,
		PipelineDepth:  pipeDepth,
		MaxInflight:    maxInflight,
	}, nil
}
