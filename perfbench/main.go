// Command perfbench is the repository's benchmark: four YCSB workloads
// over one fixed eLSM set-up, driven from a single process through the
// public elsm API and the binary wire protocol, with every answer checked
// against an oracle.
//
//	bash perfbench/run.sh --workload ycsb-c-p2 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//
// Every run sets the store up three times (setup_s is the median).
// --trace 0 measures a third of --seconds on each set-up with tracing off
// and reports the end-to-end metrics. --trace 1 measures on the last
// set-up only: half untraced (the per-layer counter metrics) and half
// traced (spans around the benchmark's calls into each layer, giving each
// layer's self time and the tracing overhead). The last line of standard
// output is one JSON object; the lines before it are a table of every
// metric with its unit and sample count. The exit status is non-zero when
// any answer is wrong or any operation fails.
//
// Layers are measured from outside the program: the benchmark times its
// own calls, wraps the vfs.FS it hands to Options.FS, and reads the
// counters and histograms the store publishes (Stats, Recorders,
// Observer, netsrv.Stats).
//
// Deliberately not measured:
//   - P1 and Eleos: paper baselines, covered by the elsm-bench figures.
//   - the CacheSize read-buffer path and internal/blockcache: the set-up
//     reads through mmap, the P2 design point.
//   - Shards > 1: one shard keeps the tree's shape exact and the layers
//     attributable.
//   - replication: followers add a second store per run; its cost is in
//     elsm-bench -exp ablation-repl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elsm/internal/costmodel"
	"elsm/internal/netclient"
	"elsm/internal/netsrv"
	"elsm/internal/obs"
)

const (
	// setUpReps is how many set-ups a run times; setup_s is their median.
	setUpReps = 3
	// warmUp runs the workload on each set-up before measuring, so lazy
	// state (mapped tables, connection buffers) is settled.
	warmUp = 500 * time.Millisecond
	// windows is how many equal windows each measured interval is cut
	// into; throughput and latency percentiles are medians over all of a
	// run's windows.
	windows = 2
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples is how many observations the value summarizes (table only).
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// auth counts failures that were IsAuthFailure: on an honest host,
	// a verifier defect.
	auth int
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var sel []workload
	if *wlName == "all" {
		sel = workloads
	} else if w, ok := workloadByName(*wlName); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have:", *wlName)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ", all)")
		return 2
	}

	spinStart := spinCheck() // the first Spin calibrates the cost model
	checkCalibration(spinStart)
	ref := refLoop()
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range sel {
		res, err := runWorkload(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir, spinStart, ref)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		if len(sel) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[wl.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// spinCheck times costmodel.Spin(1ms): the calibration is taken once per
// process, so a host throttled since then shows here.
func spinCheck() float64 {
	return medianUs(func() { costmodel.Spin(time.Millisecond) })
}

// refLoop times a fixed, uncalibrated loop of the cost model's kernel
// shape (2M iterations). Unlike the calibrated spin, it reads slower when
// the whole host is slower, so a run on a busy or throttled host can be
// told from a slower program.
func refLoop() float64 {
	return medianUs(func() {
		x := uint64(88172645463325252)
		for j := 0; j < 2_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink = x
	})
}

// medianUs is the median of five timings of f, in µs.
func medianUs(f func()) float64 {
	v := make([]float64, 5)
	for i := range v {
		t := time.Now()
		f()
		v[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(v)
}

var refSink uint64

// calibrationTries bounds how often a process re-executes itself for a
// fresh cost-model calibration.
const calibrationTries = 3

const calibrationTryEnv = "PERFBENCH_CALIBRATION_TRY"

// checkCalibration re-executes the process when Spin(1ms), timed right
// after the calibration, is more than 10% off: the calibration trials were
// interrupted, and every simulated enclave cost in this process would be
// off by as much.
func checkCalibration(spin float64) {
	if math.Abs(spin/1000-1) <= 0.10 {
		return
	}
	try, _ := strconv.Atoi(os.Getenv(calibrationTryEnv))
	if try+1 >= calibrationTries {
		fmt.Fprintf(os.Stderr, "perfbench: Spin(1ms) took %.0f µs after %d calibrations; continuing\n", spin, try+1)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	env := []string{fmt.Sprintf("%s=%d", calibrationTryEnv, try+1)}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, calibrationTryEnv+"=") {
			env = append(env, kv)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: Spin(1ms) took %.0f µs right after calibration; re-running for a fresh one\n", spin)
	err = syscall.Exec(exe, os.Args, env)
	fmt.Fprintf(os.Stderr, "perfbench: re-run failed: %v; continuing\n", err)
}

func runWorkload(wl workload, seed int64, d time.Duration, traced bool, outDir string, spinStart, ref float64) (result, error) {
	// An untraced run measures a third of d on each of its set-ups, so its
	// figures pool three identical stores and a longer stretch of time. A
	// traced run measures only on its last set-up, untraced then traced.
	var (
		times  []float64
		fp     fingerprint
		slices []slice
	)
	for i := 0; i < setUpReps; i++ {
		e, err := setUp(wl.mode)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if diff := fp.diff(e.fp); i > 0 && diff != "" {
			e.store.Close()
			return result{}, fmt.Errorf("set-up %d shape differs from set-up %d: %s", i+1, i, diff)
		}
		fp = e.fp
		times = append(times, e.took.Seconds())
		var s slice
		switch {
		case !traced:
			s, err = measureSetUp(wl, e, seed, d/setUpReps, "")
		case i == setUpReps-1:
			s, err = measureSetUp(wl, e, seed, d, filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.txt.gz", wl.name, seed)))
		default:
			err = e.store.Close()
		}
		if err != nil {
			return result{}, err
		}
		if s.untraced != nil {
			slices = append(slices, s)
		}
		runtime.GC()
	}
	fmt.Printf("# %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d %s\n", wl.name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# set-up fingerprint, identical in all %d set-ups: %s\n", setUpReps, fp)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var untraced []*phase
	for _, s := range slices {
		untraced = append(untraced, s.untraced)
		for _, p := range []*phase{s.warm, s.untraced, s.traced} {
			if p == nil {
				continue
			}
			res.Attempted += p.ops
			res.Failed += p.failed
			res.auth += p.auth
			if p.failed > 0 {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed (%d auth failures, %d busy); first: %s\n",
					wl.name, p.failed, p.ops, p.auth, p.busy, p.firstFail)
			}
		}
	}
	pooled := pool(untraced)
	var lat [numOpKinds]latency
	for k := range lat {
		lat[k] = pooled.latency(opKind(k))
	}
	if read := lat[wl.read]; !read.tailOK(0.90) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: a window holds only %d %s samples, too few for a p90\n", wl.name, read.minN, opNames[wl.read])
	}
	last := slices[len(slices)-1]
	// The first measured set-up's heap: later ones also hold earlier
	// set-ups' samples.
	e2e := e2eMetrics(pooled, lat[wl.read], times, fp, slices[0].heapMB)
	layer := layerMetrics(wl, last.untraced, spinStart, last.spinEnd, ref, last.enclaveMB)
	if traced {
		layer = append(layer, selfMetrics(wl, last.untraced, last.traced, lat)...)
	}
	printTable(pooled, lat, e2e, layer, res)

	emit := e2e
	if traced {
		emit = layer
	}
	for _, m := range emit {
		res.Metrics[m.name] = m.metric
	}
	return res, nil
}

// slice is what the measurement on one set-up produced.
type slice struct {
	warm, untraced, traced     *phase
	spinEnd, enclaveMB, heapMB float64
}

// measureSetUp warms up and measures the workload on e for d, traced for
// the second half when spansPath is set, and closes e.
func measureSetUp(wl workload, e *env, seed int64, d time.Duration, spansPath string) (slice, error) {
	defer e.store.Close()
	r := newRunner(wl, e, seed)
	if wl.wire {
		stop, err := r.serve()
		if err != nil {
			return slice{}, err
		}
		defer stop()
	}
	var s slice
	s.warm = r.measure(warmUp, 1, nil)
	// The heap is read before the measured phase: afterwards it would also
	// hold the benchmark's per-operation samples, which grow with
	// throughput.
	if err := e.store.WaitMaintenance(); err != nil {
		return slice{}, fmt.Errorf("settle after warm-up: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if spansPath == "" {
		s.untraced = r.measure(d, windows, nil)
	} else {
		s.untraced = r.measure(d/2, windows, nil)
		tr := newTracer()
		s.traced = r.measure(d-d/2, windows, tr)
		if err := tr.write(spansPath); err != nil {
			return slice{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(s.traced.spans), spansPath)
	}
	s.spinEnd = spinCheck()
	s.enclaveMB = float64(e.store.Stats().EnclaveBytes) / (1 << 20)
	return s, nil
}

// e2eMetrics are the figures a user of the store sees.
func e2eMetrics(p *phase, read latency, setUpTimes []float64, fp fingerprint, heapMB float64) []namedMetric {
	return []namedMetric{
		{"throughput_ops", metric{p.throughput(), "1/s", p.ops}},
		{"read_p50_us", metric{read.P50, "us", read.N}},
		{"read_p90_us", metric{read.P90, "us", read.N}},
		{"setup_s", metric{median(append([]float64(nil), setUpTimes...)), "s", len(setUpTimes)}},
		{"space_amp", metric{float64(fp.DiskBytes) / userBytes(), "x", 1}},
		{"heap_mb", metric{heapMB, "MB", 1}},
	}
}

// printTable prints every figure with its unit and sample count, the
// per-operation latencies and the per-window rates behind the medians.
func printTable(p *phase, lat [numOpKinds]latency, e2e, layer []namedMetric, res result) {
	fmt.Printf("# window ops/s:")
	for _, v := range p.rates {
		fmt.Printf(" %.0f", v)
	}
	fmt.Println()
	rows := append([]namedMetric(nil), e2e...)
	for k, l := range lat {
		if l.N == 0 {
			continue
		}
		name := opNames[k]
		rows = append(rows, namedMetric{name + "_p50_us", metric{l.P50, "us", l.N}},
			namedMetric{name + "_p90_us", metric{l.P90, "us", l.N}})
		if l.tailOK(0.99) {
			rows = append(rows, namedMetric{name + "_p99_us", metric{l.P99, "us", l.N}})
		}
	}
	rows = append(rows,
		namedMetric{"fail_frac", metric{ratio(float64(res.Failed), float64(res.Attempted)), "x", res.Attempted}},
		namedMetric{"auth_failures", metric{float64(res.auth), "count", res.Attempted}})
	rows = append(rows, layer...)
	fmt.Printf("%-36s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range rows {
		fmt.Printf("%-36s %14.4f %-6s %d\n", m.name, m.Value, m.Unit, m.samples)
	}
}

type namedMetric struct {
	name string
	metric
}

// serve starts netsrv on loopback and connects the one client.
func (r *runner) serve() (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv, err := netsrv.New(r.env.store, netsrv.Config{})
	if err != nil {
		ln.Close()
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	client, err := netclient.Dial(ln.Addr().String())
	if err != nil {
		srv.Close()
		<-done
		return nil, fmt.Errorf("dial: %w", err)
	}
	r.srv, r.client = srv, client
	return func() {
		client.Close()
		srv.Close()
		<-done
	}, nil
}

// histDelta is the count and sum a histogram gained over a phase.
func histDelta(p *phase, name string) (count, sum float64) {
	return snapDelta(p.begin.hists[name], p.end.hists[name])
}

// meanUs is a histogram's mean over the phase, in µs (0 when empty).
func meanUs(p *phase, name string) float64 {
	c, s := histDelta(p, name)
	return ratio(s, c) / 1e3
}

func snapDelta(a, b obs.HistSnapshot) (count, sum float64) {
	return float64(b.Count - a.Count), float64(b.Sum - a.Sum)
}

// layerMetrics derives every per-layer counter metric of one phase.
func layerMetrics(wl workload, p *phase, spinStart, spinEnd, ref, enclaveMB float64) []namedMetric {
	st0, st1 := p.begin.st, p.end.st
	fs := p.end.fs.sub(p.begin.fs)
	ops := float64(p.ops)
	writes := float64(p.writes)
	userWritten := writes * recordSize
	gets, _ := histDelta(p, "get_e2e_nanos")

	var apiGetNanos float64 // bench-timed in-process Store.Get
	if !wl.wire {
		for _, v := range p.lat[opGet] {
			apiGetNanos += float64(v)
		}
	}
	coreGet := meanUs(p, "get_e2e_nanos")
	verify := meanUs(p, "verify_nanos")
	apiOverhead := 0.0
	if gets > 0 && !wl.wire {
		apiOverhead = ratio(apiGetNanos, float64(len(p.lat[opGet])))/1e3 - coreGet
	}
	// The unsecured store publishes no Get histogram: its whole bench-timed
	// Get is the lookup.
	lookup := coreGet - verify
	if gets == 0 {
		lookup = ratio(apiGetNanos, float64(len(p.lat[opGet]))) / 1e3
	}

	groups := float64(st1.GroupCommits - st0.GroupCommits)
	var rttNanos float64
	var rttN int
	if wl.wire {
		for _, k := range []opKind{opGet, opUpdate} {
			for _, v := range p.lat[k] {
				rttNanos += float64(v)
			}
			rttN += len(p.lat[k])
		}
	}
	svcN, svcSum := snapDelta(p.begin.netSvc, p.end.netSvc)
	rtt := ratio(rttNanos, float64(rttN)) / 1e3
	svc := ratio(svcSum, svcN) / 1e3
	netOverhead := 0.0
	if wl.wire {
		netOverhead = rtt - svc
	}
	_, mergeSum := histDelta(p, "compact_merge_nanos")

	m := []namedMetric{
		{"elsm.api_overhead_us", metric{apiOverhead, "us", len(p.lat[opGet])}},
		{"sgx.ecalls_per_op", metric{ratio(float64(st1.ECalls-st0.ECalls), ops), "count", p.ops}},
		{"sgx.ocalls_per_op", metric{ratio(float64(st1.OCalls-st0.OCalls), ops), "count", p.ops}},
		{"sgx.page_faults_per_op", metric{ratio(float64(st1.PageFaults-st0.PageFaults), ops), "count", p.ops}},
		{"sgx.copied_bytes_per_op", metric{ratio(float64(st1.CopiedBytes-st0.CopiedBytes), ops), "B", p.ops}},
		{"sgx.counter_bumps_per_update", metric{ratio(float64(p.end.ctr-p.begin.ctr), writes), "count", p.writes}},
		{"sgx.enclave_mb", metric{enclaveMB, "MB", 1}},
		{"costmodel.spin_1ms_us_start", metric{spinStart, "us", 5}},
		{"costmodel.spin_1ms_us_end", metric{spinEnd, "us", 5}},
		{"costmodel.ref_loop_us", metric{ref, "us", 5}},
		{"core.get_us", metric{coreGet, "us", int(gets)}},
		{"core.verify_us", metric{verify, "us", int(gets)}},
		{"core.scan_chunk_us", metric{meanUs(p, "scan_chunk_nanos"), "us", len(p.lat[opScan])}},
		{"core.proof_bytes_per_get", metric{ratio(float64(st1.ProofBytes-st0.ProofBytes), float64(st1.VerifiedGets-st0.VerifiedGets)), "B", int(gets)}},
		{"core.runs_probed_per_get", metric{ratio(float64(st1.RunsProbed-st0.RunsProbed), float64(st1.VerifiedGets-st0.VerifiedGets)), "count", int(gets)}},
		{"core.seals_per_1k_updates", metric{ratio(1000*float64(fs.Seals), writes), "count", p.writes}},
		{"core.seal_us", metric{ratio(float64(fs.SealNanos), float64(fs.Seals)) / 1e3, "us", int(fs.Seals)}},
		{"lsm.lookup_us_residual", metric{lookup, "us", int(gets)}},
		{"lsm.put_us", metric{meanUs(p, "put_e2e_nanos"), "us", p.writes}},
		{"lsm.commit_queue_wait_us", metric{meanUs(p, "commit_queue_wait_nanos"), "us", int(groups)}},
		{"lsm.commit_append_us", metric{meanUs(p, "commit_append_nanos"), "us", int(groups)}},
		{"lsm.commit_fsync_us", metric{meanUs(p, "commit_fsync_nanos"), "us", int(groups)}},
		{"lsm.commit_apply_us", metric{meanUs(p, "commit_apply_nanos"), "us", int(groups)}},
		{"lsm.commit_resolve_us", metric{meanUs(p, "commit_resolve_nanos"), "us", int(groups)}},
		{"lsm.group_size", metric{ratio(float64(st1.GroupedRecords-st0.GroupedRecords), groups), "count", int(groups)}},
		{"lsm.flushes", metric{float64(st1.Flushes - st0.Flushes), "count", 1}},
		{"lsm.compactions", metric{float64(st1.Compactions - st0.Compactions), "count", 1}},
		{"lsm.flush_stall_ms", metric{float64(st1.FlushStallNanos-st0.FlushStallNanos) / 1e6, "ms", 1}},
		{"lsm.bytes_compacted_per_user_byte", metric{ratio(float64(st1.BytesCompacted-st0.BytesCompacted), userWritten), "x", p.writes}},
		{"lsm.compact_merge_ms", metric{mergeSum / 1e6, "ms", 1}},
		{"vfs.writes", metric{float64(sum(fs.Writes)), "count", 1}},
		{"vfs.bytes_written_per_user_byte", metric{ratio(float64(sum(fs.WriteBytes)), userWritten), "x", p.writes}},
	}
	for k := fileKind(0); k < kindOther; k++ {
		m = append(m, namedMetric{"vfs." + kindNames[k] + "_bytes_per_user_byte",
			metric{ratio(float64(fs.WriteBytes[k]), userWritten), "x", p.writes}})
	}
	m = append(m,
		namedMetric{"vfs.syncs_per_update", metric{ratio(float64(sum(fs.Syncs)), writes), "count", p.writes}},
		namedMetric{"vfs.sync_us", metric{ratio(float64(sum(fs.SyncNanos)), float64(sum(fs.Syncs))) / 1e3, "us", int(sum(fs.Syncs))}},
		namedMetric{"vfs.append_us", metric{ratio(float64(sum(fs.WriteNanos)), float64(sum(fs.Writes))) / 1e3, "us", int(sum(fs.Writes))}},
		namedMetric{"vfs.read_bytes_per_op", metric{ratio(float64(sum(fs.ReadBytes)), ops), "B", p.ops}},
		namedMetric{"netclient.rtt_us", metric{rtt, "us", rttN}},
		namedMetric{"netsrv.service_us", metric{svc, "us", int(svcN)}},
		namedMetric{"net.overhead_us", metric{netOverhead, "us", rttN}},
		namedMetric{"netsrv.bytes_per_op", metric{ratio(float64(p.end.net.BytesIn+p.end.net.BytesOut-p.begin.net.BytesIn-p.begin.net.BytesOut), ops), "B", p.ops}},
		namedMetric{"netsrv.busy_rejects", metric{float64(p.end.net.BusyRejects - p.begin.net.BusyRejects), "count", 1}},
		namedMetric{"ycsb.gen_us", metric{ratio(float64(p.genNanos), ops) / 1e3, "us", p.ops}},
	)
	return m
}

// selfLayers are the layers a traced run splits each operation's time
// across, in report order.
var selfLayers = []string{"bench", "ycsb", "elsm", "netclient", "netsrv", "core", "lsm", "vfs", "vfs_bg", "sgx"}

// selfMetrics splits the traced phase's time across the layers, per
// operation, and reports what tracing cost against the untraced phase.
//
// Spans exist only at the benchmark's own boundaries (its op loop, key
// generation, its calls into elsm or netclient, the FS wrapper, the
// counter read). The time inside a call is split further with the
// histograms the store publishes over the same interval: core is Merkle
// verification plus verified scan chunks; lsm is the rest of the engine's
// Get and the commit pipeline, less the foreground FS time that the vfs
// spans already hold; netsrv is service time not spent in the engine.
func selfMetrics(wl workload, untraced, p *phase, lat [numOpKinds]latency) []namedMetric {
	self := selfTimes(p.spans)
	get := func(name string) float64 { _, s := histDelta(p, name); return s }
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	t := map[string]float64{}
	for k, v := range self {
		t[k] = float64(v)
	}
	getE2E, verify, chunk := get("get_e2e_nanos"), get("verify_nanos"), get("scan_chunk_nanos")
	if c, _ := histDelta(p, "get_e2e_nanos"); c == 0 && !wl.wire {
		// Unsecured: no Get histogram, so the whole Get is the lookup.
		for _, v := range p.lat[opGet] {
			getE2E += float64(v)
		}
	}
	commits := get("put_e2e_nanos") + get("commit_e2e_nanos")
	vfs := t["vfs"]
	if wl.wire {
		_, svc := snapDelta(p.begin.netSvc, p.end.netSvc)
		pipeline := get("commit_queue_wait_nanos") + get("commit_append_nanos") + get("commit_fsync_nanos") +
			get("commit_apply_nanos") + get("commit_resolve_nanos")
		t["netsrv"] = clamp(svc - getE2E)
		t["core"] = verify
		t["lsm"] = clamp(getE2E - verify + pipeline - vfs)
		t["netclient"] = clamp(t["netclient"] + vfs - svc - pipeline)
	} else {
		t["core"] = verify + chunk
		t["lsm"] = clamp(getE2E - verify + commits - vfs)
		t["elsm"] = clamp(t["elsm"] + vfs - getE2E - chunk - commits)
	}
	ops := float64(p.ops)
	var out []namedMetric
	for _, l := range selfLayers {
		out = append(out, namedMetric{"self_us." + l, metric{ratio(t[l], ops) / 1e3, "us", p.ops}})
	}
	tracedRead := p.latency(wl.read)
	out = append(out,
		namedMetric{"trace.overhead_read_p50_pct", metric{100 * (ratio(tracedRead.P50, lat[wl.read].P50) - 1), "%", tracedRead.N}},
		namedMetric{"trace.overhead_throughput_pct", metric{100 * (ratio(untraced.throughput(), p.throughput()) - 1), "%", p.ops}},
	)
	return out
}
