package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netsrv"
	"elsm/internal/obs"
	"elsm/internal/vfs"
)

// The net ablation measures the network front end end to end: many client
// connections pushing durable writes through the full stack — client
// codec, TCP, the server's reader/workers/writer pipeline, the store's
// group-commit fsyncs — on storage with a real fsync cost. Two client
// disciplines run the same workload over the same binary protocol:
//
//   - pipelined: each connection keeps a window of writes in flight
//     (netPipelineWindow deep, shrunk at the high end of the sweep so the
//     fleet stays inside netInflightBudget), so one client contributes a
//     window of commits to the shared fsync groups;
//   - request-reply: a one-request window, each connection contributing at
//     most one commit at a time.
//
// Cross-connection group commit helps both; per-connection pipelining is
// what the window adds, and the sweep shows where it pays: a pipelined
// connection contributes a whole window to the shared fsync groups, so few
// pipelined clients match the throughput request-reply clients need an
// order of magnitude more connections to reach. The final overload row
// reruns the pipelined point against a deliberately tiny async-commit
// backlog, demonstrating that saturation sheds load as typed BUSY
// (counted per 1k attempts) instead of queueing without bound.
const (
	netSyncDelay      = 200 * time.Microsecond
	netPipelineWindow = 8
	netValueSize      = 100
	// netDialParallel staggers connection setup so a large sweep point
	// does not overflow the accept backlog.
	netDialParallel = 64
	// netInflightBudget bounds the fleet's total offered in-flight writes:
	// each client's window is netInflightBudget/clients (clamped to
	// [1, netPipelineWindow]), the way a production fleet sizes its global
	// in-flight to the server's admission budget (DefaultMaxInflight).
	// In-flight work beyond where the durability pipeline saturates adds
	// only queueing delay and memory, so without the cap the high end of
	// the sweep measures self-inflicted queueing, not protocol scaling.
	netInflightBudget = 4096
	// Overload point: a backlog far below the offered in-flight load and a
	// short admission wait force the BUSY path.
	netOverloadClients = 200
	netOverloadBacklog = 8
)

// netClientSweep is the ablation's X axis: concurrent client connections.
// The low end is where per-connection pipelining pays (a request-reply
// client is depth-starved: one commit in flight per connection); by the
// high end a single-core CI box is saturated by connection handling alone
// and the two disciplines converge. 2000 is the CI-sized ceiling — the
// harness itself is sized for 10k (goroutine-per-connection clients, ~24 KB
// of buffers per connection) on a machine with the cores and fds to spare.
var netClientSweep = []int{4, 16, 64, 2000}

// netWindow sizes one connection's pipeline window for a sweep point:
// netPipelineWindow deep until the fleet's total offered in-flight would
// exceed netInflightBudget, then shrunk so clients×window stays inside it
// (never below one — the request-reply depth).
func netWindow(clients int) int {
	w := netInflightBudget / clients
	if w < 1 {
		w = 1
	}
	if w > netPipelineWindow {
		w = netPipelineWindow
	}
	return w
}

// netBench is one running store + front end on a loopback listener.
type netBench struct {
	store *elsm.Store
	srv   *netsrv.Server
	addr  string
}

func (b *netBench) Close() {
	b.srv.Close()
	b.store.Close()
}

// openNetBench serves a fresh store on sync-delayed storage. backlog and
// wait tune the admission control (0 = defaults); maxInflight is sized to
// the offered load so the sweep measures scaling, not the budget.
func openNetBench(clients, backlog int, wait time.Duration) (*netBench, error) {
	store, err := elsm.Open(elsm.Options{
		FS:                    vfs.NewSlowSync(vfs.NewMem(), netSyncDelay),
		MaxAsyncCommitBacklog: backlog,
		// Bound commit groups: unbounded groups swallow the whole fleet's
		// window into one commit, synchronizing every connection's
		// completions and leaving the pipeline idle during the fleet-wide
		// turnaround. Capped groups stagger completions and keep commits
		// flowing continuously.
		GroupCommitMaxOps: 64,
	})
	if err != nil {
		return nil, err
	}
	srv, err := netsrv.New(store, netsrv.Config{
		MaxConnections: clients + 8,
		PipelineDepth:  netPipelineWindow * 2,
		MaxInflight:    clients*netPipelineWindow + 64,
		AdmissionWait:  wait,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		store.Close()
		return nil, err
	}
	go srv.Serve(ln)
	return &netBench{store: store, srv: srv, addr: ln.Addr().String()}, nil
}

// netResult aggregates one point's measurements across clients. Latencies
// live in a merged log-bucket histogram snapshot (internal/obs) instead of
// a per-op slice: constant memory across the sweep, and the same quantile
// estimator the server's /metrics endpoint uses.
type netResult struct {
	completed int
	busy      int
	lat       obs.HistSnapshot
	elapsed   time.Duration
}

func (r netResult) kops() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.completed) / r.elapsed.Seconds() / 1e3
}

func (r netResult) p99ms() float64 {
	return float64(r.lat.Quantile(0.99)) / 1e6
}

// runNetClients runs one point in two phases so the measured window is
// pure request traffic: every client connects (dials staggered, so a large
// point does not overflow the accept backlog) and parks on a barrier; the
// clock starts when the last one is ready, all are released together, and
// it stops when the last finishes. connect(id) establishes one client and
// returns its runner; the runner reports completed ops, BUSY sheds and
// per-op latencies.
func runNetClients(clients int, connect func(id int) (func() (int, int, obs.HistSnapshot, error), error)) (netResult, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   netResult
		first error
		ready sync.WaitGroup
	)
	gate := make(chan struct{}, netDialParallel)
	barrier := make(chan struct{})
	ready.Add(clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gate <- struct{}{}
			run, err := connect(id)
			<-gate
			ready.Done()
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				return
			}
			<-barrier
			done, busy, lat, rerr := run()
			mu.Lock()
			defer mu.Unlock()
			if rerr != nil && first == nil {
				first = rerr
			}
			res.completed += done
			res.busy += busy
			res.lat.Merge(lat)
		}(id)
	}
	ready.Wait()
	start := time.Now()
	close(barrier)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, first
}

// netBinaryClient connects one binary client; its runner pushes perClient
// pipelined durable writes, keeping window in flight. ErrBusy settles the
// op as shed (counted, not retried); any other error aborts the client.
func netBinaryClient(addr string, id, perClient, window int) (func() (int, int, obs.HistSnapshot, error), error) {
	c, err := netclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return func() (int, int, obs.HistSnapshot, error) {
		defer c.Close()
		return netBinaryOps(c, id, perClient, window)
	}, nil
}

func netBinaryOps(c *netclient.Client, id, perClient, window int) (int, int, obs.HistSnapshot, error) {
	val := make([]byte, netValueSize)
	type inflight struct {
		fut   *netclient.Future
		start time.Time
	}
	var (
		pending   []inflight
		completed int
		busy      int
		lat       obs.Histogram
	)
	settle := func(w inflight) error {
		_, err := w.fut.Wait()
		switch {
		case err == nil:
			completed++
			lat.ObserveSince(w.start)
		case err == netclient.ErrBusy:
			busy++
		default:
			return err
		}
		return nil
	}
	// Settle one per send once the window fills: the window stays full, so
	// the server's commit pipeline sees this connection's writes as a
	// continuous stream rather than synchronized bursts (settling in
	// batches lockstepped the whole fleet into admit-then-starve cycles
	// that left the group-commit pipeline idle between rounds).
	for i := 0; i < perClient; i++ {
		key := fmt.Appendf(nil, "c%05d-%07d", id, i)
		start := time.Now()
		fut, err := c.PutAsync(key, val)
		if err != nil {
			return completed, busy, lat.Snapshot(), err
		}
		pending = append(pending, inflight{fut, start})
		if len(pending) >= window {
			if err := settle(pending[0]); err != nil {
				return completed, busy, lat.Snapshot(), err
			}
			pending = pending[1:]
		}
	}
	for _, w := range pending {
		if err := settle(w); err != nil {
			return completed, busy, lat.Snapshot(), err
		}
	}
	return completed, busy, lat.Snapshot(), nil
}

// netPerClient sizes each connection's op count: small CI budgets still
// exercise every sweep point, and the floor of two full pipeline windows
// guarantees the pipelined window is actually in play.
func netPerClient(totalOps, window int, clients int) int {
	per := totalOps / clients
	if per < 2*window {
		per = 2 * window
	}
	return per
}

// netPoint measures one (clients, window) cell; window 0 sizes the
// pipelined window by netWindow.
func (c Config) netPoint(clients, backlog int, wait time.Duration, window int) (netResult, error) {
	b, err := openNetBench(clients, backlog, wait)
	if err != nil {
		return netResult{}, err
	}
	defer b.Close()
	if window == 0 {
		window = netWindow(clients)
	}
	per := netPerClient(c.Ops, netWindow(clients), clients)
	return runNetClients(clients, func(id int) (func() (int, int, obs.HistSnapshot, error), error) {
		return netBinaryClient(b.addr, id, per, window)
	})
}

// AblationNet sweeps concurrent client connections with pipelined and
// request-reply clients, reporting durable-write throughput and p99
// latency end to end, plus an overload row demonstrating BUSY load
// shedding when the async-commit backlog saturates. Expected shape:
// pipelined throughput scales with clients and clearly beats request-reply
// at the low end of the sweep (the pipelined window multiplies each
// connection's contribution to shared fsync groups); the overload row
// sheds a nonzero busy/1k while still completing work — and the server
// neither deadlocks nor buffers without bound.
func AblationNet(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name: "Ablation: net",
		Caption: fmt.Sprintf("networked durable puts vs client connections, up to %d-deep pipeline vs request-reply, %v fsync (throughput: kops/s; latency: p99 ms)",
			netPipelineWindow, netSyncDelay),
		XLabel: "clients",
		Series: seriesOrder("pipelined kops/s", "request-reply kops/s", "pipelined p99 ms", "request-reply p99 ms", "busy/1k"),
	}
	// Warm-up: the first cell in a process pays one-off costs (heap
	// growth, page faults, the crypto stack's first blocks) that skew a
	// cross-cell comparison on a small box; burn them on a throwaway
	// point.
	warm := cfg
	warm.Ops = 2000
	if _, err := warm.netPoint(32, 0, 0, 0); err != nil {
		return t, fmt.Errorf("net ablation (warm-up): %w", err)
	}

	for _, clients := range netClientSweep {
		cfg.logf("AblationNet clients=%d", clients)
		pipe, err := cfg.netPoint(clients, 0, 0, 0)
		if err != nil {
			return t, fmt.Errorf("net ablation (pipelined, %d clients): %w", clients, err)
		}
		rr, err := cfg.netPoint(clients, 0, 0, 1)
		if err != nil {
			return t, fmt.Errorf("net ablation (request-reply, %d clients): %w", clients, err)
		}
		cfg.logf("    %d clients: pipelined %.1f kops/s p99 %.2f ms | request-reply %.1f kops/s p99 %.2f ms",
			clients, pipe.kops(), pipe.p99ms(), rr.kops(), rr.p99ms())
		t.Rows = append(t.Rows, Row{
			X: fmt.Sprintf("%d", clients),
			Series: map[string]float64{
				"pipelined kops/s":     pipe.kops(),
				"request-reply kops/s": rr.kops(),
				"pipelined p99 ms":     pipe.p99ms(),
				"request-reply p99 ms": rr.p99ms(),
				"busy/1k":              0,
			},
		})
	}

	// Overload: a backlog of netOverloadBacklog against an offered load of
	// netOverloadClients×netPipelineWindow in-flight writes. The server
	// must shed (busy/1k > 0) while the admitted share completes.
	cfg.logf("AblationNet overload (backlog %d)", netOverloadBacklog)
	over, err := cfg.netPoint(netOverloadClients, netOverloadBacklog, 2*time.Millisecond, 0)
	if err != nil {
		return t, fmt.Errorf("net ablation (overload): %w", err)
	}
	attempts := over.completed + over.busy
	busyPerK := 0.0
	if attempts > 0 {
		busyPerK = float64(over.busy) / float64(attempts) * 1000
	}
	cfg.logf("    overload: %.1f kops/s admitted, %.0f busy/1k", over.kops(), busyPerK)
	t.Rows = append(t.Rows, Row{
		X: fmt.Sprintf("%d overload", netOverloadClients),
		Series: map[string]float64{
			"pipelined kops/s": over.kops(),
			"pipelined p99 ms": over.p99ms(),
			"busy/1k":          busyPerK,
		},
	})
	return t, nil
}
