package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netsrv"
	"elsm/internal/obs"
	"elsm/internal/ycsb"
)

type opKind int

const (
	opGet opKind = iota
	opUpdate
	opScan
	opInsert
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "update", "scan", "insert"}

// workload is one operation mix over the shared set-up. Every workload is
// a closed loop with one client: the next operation starts when the
// previous one has returned.
type workload struct {
	name string
	mode elsm.Mode
	// wire sends every operation over one netclient connection to an
	// in-process netsrv on loopback instead of calling the store.
	wire bool
	// getFrac and scanFrac are the shares of Gets and scans; the rest
	// are writes of kind write.
	getFrac, scanFrac float64
	write             opKind
	// read is the operation whose latency is the workload's read_p50_us.
	read opKind
}

// workloads, with why each was chosen in BENCHMARK.json.
var workloads = []workload{
	{name: "ycsb-c-p2", mode: elsm.ModeP2, getFrac: 1, read: opGet},
	{name: "ycsb-c-unsecured", mode: elsm.ModeUnsecured, getFrac: 1, read: opGet},
	{name: "ycsb-a-wire", mode: elsm.ModeP2, wire: true, getFrac: 0.5, write: opUpdate, read: opGet},
	{name: "ycsb-e-p2", mode: elsm.ModeP2, scanFrac: 0.95, write: opInsert, read: opScan},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxScanKeys bounds a ycsb-e-p2 scan, in loaded keys.
const maxScanKeys = 50

// valueOf is the value of key index idx after its ver-th write (0: the
// loaded value).
func valueOf(idx uint64, ver uint32) []byte {
	return ycsb.Value(idx|uint64(ver)<<40, valueSize)
}

// keyIndex parses a ycsb.Key back to its index.
func keyIndex(key []byte) (uint64, bool) {
	if len(key) != ycsb.DefaultKeySize || !bytes.HasPrefix(key, []byte("user")) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(key[4:]), 10, 64)
	return v, err == nil
}

// keyModel is the oracle: the version of every key written since the
// load. A loaded key (index stride*i, i < numRecords) absent from ver
// holds its loaded value; any other key exists only once written.
type keyModel struct {
	ver map[uint64]uint32
}

func (m *keyModel) lookup(idx uint64) (uint32, bool) {
	if v, ok := m.ver[idx]; ok {
		return v, true
	}
	return 0, idx%stride == 0 && idx/stride < numRecords
}

// write records a new version of idx and returns it.
func (m *keyModel) write(idx uint64) uint32 {
	v, _ := m.lookup(idx)
	m.ver[idx] = v + 1
	return v + 1
}

// phase accumulates one measured interval.
type phase struct {
	lat       [numOpKinds][]int64 // bench-timed call latency, ns
	genNanos  int64               // key choice and value generation
	ops       int
	failed    int
	auth      int // IsAuthFailure: a verifier defect on an honest host
	busy      int
	firstFail string
	writes    int
	// ends[w][k] is len(lat[k]) when window w ended; rates[w] is the
	// window's operations per second.
	ends  [][numOpKinds]int
	rates []float64
	begin snap
	end   snap
	spans []span
}

func (p *phase) fail(auth, busy bool, format string, args ...interface{}) {
	p.failed++
	if auth {
		p.auth++
	}
	if busy {
		p.busy++
	}
	if p.firstFail == "" {
		p.firstFail = fmt.Sprintf(format, args...)
	}
}

// snap is the published state of every layer at one instant.
type snap struct {
	st     elsm.Stats
	hists  map[string]obs.HistSnapshot
	netSvc obs.HistSnapshot
	net    netsrv.Stats
	fs     fsCounts
	ctr    uint64
}

// runner drives one workload against one set-up.
type runner struct {
	wl     workload
	env    *env
	model  keyModel
	keys   *ycsb.KeyChooser
	rnd    *rand.Rand
	srv    *netsrv.Server
	client *netclient.Client
	tr     *tracer
	rows   []elsm.Result
}

func newRunner(wl workload, e *env, seed int64) *runner {
	return &runner{
		wl:    wl,
		env:   e,
		model: keyModel{ver: make(map[uint64]uint32)},
		keys:  ycsb.NewKeyChooser(ycsb.Zipfian, numRecords, seed),
		rnd:   rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

func (r *runner) snap() snap {
	s := snap{
		st:    r.env.store.Stats(),
		hists: make(map[string]obs.HistSnapshot),
		fs:    r.env.fs.counts(),
	}
	s.ctr, _ = r.env.counter.Read()
	for _, rec := range r.env.store.Recorders() {
		for _, h := range rec.Hists() {
			cur := s.hists[h.Name]
			cur.Merge(h.Hist.Snapshot())
			s.hists[h.Name] = cur
		}
	}
	if o := r.env.store.Observer(); o != nil {
		s.netSvc = o.NetService.Snapshot()
	}
	if r.srv != nil {
		s.net = r.srv.Stats()
	}
	return s
}

// measure runs the workload for d, cut into n equal windows, and returns
// the interval's record.
func (r *runner) measure(d time.Duration, n int, tr *tracer) *phase {
	r.tr = tr
	r.env.fs.tr.Store(tr)
	p := &phase{begin: r.snap()}
	start := time.Now()
	for w := 1; w <= n; w++ {
		wStart, ops0 := time.Now(), p.ops
		for time.Since(start) < d*time.Duration(w)/time.Duration(n) {
			r.step(p)
		}
		var end [numOpKinds]int
		for k := range p.lat {
			end[k] = len(p.lat[k])
		}
		p.ends = append(p.ends, end)
		p.rates = append(p.rates, float64(p.ops-ops0)/time.Since(wStart).Seconds())
	}
	r.env.fs.tr.Store(nil)
	r.tr = nil
	p.end = r.snap()
	p.spans = tr.snapshot()
	return p
}

// latency reduces op kind k's latencies, window by window.
func (p *phase) latency(k opKind) latency {
	ends := make([]int, len(p.ends))
	for w, e := range p.ends {
		ends[w] = e[k]
	}
	return windowed(p.lat[k], ends)
}

// pool concatenates phases' latencies and windows.
func pool(ps []*phase) *phase {
	out := &phase{}
	for _, p := range ps {
		var base [numOpKinds]int
		for k := range p.lat {
			base[k] = len(out.lat[k])
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
		for _, e := range p.ends {
			for k := range e {
				e[k] += base[k]
			}
			out.ends = append(out.ends, e)
		}
		out.rates = append(out.rates, p.rates...)
		out.ops += p.ops
	}
	return out
}

// throughput is the median over windows of operations per second.
func (p *phase) throughput() float64 {
	return median(append([]float64(nil), p.rates...))
}

// step runs and checks one operation.
func (r *runner) step(p *phase) {
	tr := r.tr
	rootID, rootStart := tr.newID(), tr.now()

	g0 := time.Now()
	kind := r.wl.write
	u := r.rnd.Float64()
	switch {
	case u < r.wl.getFrac:
		kind = opGet
	case u < r.wl.getFrac+r.wl.scanFrac:
		kind = opScan
	}
	k := r.keys.Next()
	idx := k * stride
	var hi uint64 // scan: last key index in range
	var ver uint32
	var val []byte
	switch kind {
	case opScan:
		n := uint64(1 + r.rnd.Intn(maxScanKeys))
		if k+n > numRecords {
			n = numRecords - k
		}
		hi = (k+n)*stride - 1
	case opInsert:
		// A fresh key in the gap after idx, so it lands inside the
		// ranges the scans read; the gap may be full on a hot key.
		idx += 1 + uint64(r.rnd.Intn(stride-1))
		ver = r.model.write(idx)
		val = valueOf(idx, ver)
	case opUpdate:
		ver = r.model.write(idx)
		val = valueOf(idx, ver)
	}
	key := ycsb.Key(idx)
	genD := time.Since(g0)
	p.genNanos += int64(genD)
	if tr != nil {
		tr.record(span{ID: tr.newID(), Parent: rootID, Layer: "ycsb", Name: "ycsb.gen",
			Start: int64(g0.Sub(tr.epoch)), End: int64(g0.Sub(tr.epoch) + genD)})
	}

	callID := tr.newID()
	tr.setActive(callID)
	t0 := time.Now()
	var (
		res   elsm.Result
		found bool
		err   error
	)
	switch {
	case kind == opScan:
		r.rows = r.rows[:0]
		it := r.env.store.Iter(key, ycsb.Key(hi))
		for it.Next() {
			r.rows = append(r.rows, it.Result())
		}
		err = it.Close()
	case r.wl.wire && kind == opGet:
		var nr netclient.Result
		nr, err = r.client.Get(key)
		res.Value, found = nr.Value, nr.Found
	case r.wl.wire:
		_, err = r.client.Put(key, val)
	case kind == opGet:
		res, err = r.env.store.Get(key)
		found = res.Found
	default:
		_, err = r.env.store.Put(key, val)
	}
	d := time.Since(t0)
	tr.setActive(0)
	if tr != nil {
		layer := "elsm"
		if r.wl.wire {
			layer = "netclient"
		}
		tr.record(span{ID: callID, Parent: rootID, Layer: layer, Name: layer + "." + opNames[kind],
			Start: int64(t0.Sub(tr.epoch)), End: int64(t0.Sub(tr.epoch) + d)})
	}

	p.ops++
	p.lat[kind] = append(p.lat[kind], int64(d))
	if kind == opUpdate || kind == opInsert {
		p.writes++
		if tr != nil {
			c0 := tr.now()
			r.env.counter.Read()
			tr.record(span{ID: tr.newID(), Parent: rootID, Layer: "sgx", Name: "sgx.counter_read", Start: c0, End: tr.now()})
		}
	}
	switch {
	case err != nil:
		auth := elsm.IsAuthFailure(err) || netclient.IsAuthFailure(err)
		p.fail(auth, errors.Is(err, netclient.ErrBusy), "%s %s: %v", opNames[kind], key, err)
	case kind == opGet:
		want, _ := r.model.lookup(idx)
		if !found || !bytes.Equal(res.Value, valueOf(idx, want)) {
			p.fail(false, false, "get %s: found=%v, value differs from version %d", key, found, want)
		}
	case kind == opScan:
		if msg := r.checkScan(idx, hi); msg != "" {
			p.fail(false, false, "scan [%s, %s]: %s", key, ycsb.Key(hi), msg)
		}
	}
	if tr != nil {
		tr.record(span{ID: rootID, Layer: "bench", Name: "op." + opNames[kind], Start: rootStart, End: tr.now()})
	}
}

// checkScan compares r.rows with the model's keys in [lo, hi]: ascending,
// each present key exactly once with its latest value, nothing else.
func (r *runner) checkScan(lo, hi uint64) string {
	i := 0
	prev := int64(-1)
	for idx := lo; idx <= hi; idx++ {
		ver, ok := r.model.lookup(idx)
		if !ok {
			continue
		}
		if i >= len(r.rows) {
			return fmt.Sprintf("incomplete: missing %s", ycsb.Key(idx))
		}
		got, ok := keyIndex(r.rows[i].Key)
		switch {
		case !ok:
			return fmt.Sprintf("row %d: malformed key %q", i, r.rows[i].Key)
		case int64(got) <= prev:
			return fmt.Sprintf("row %d: key %s out of order", i, r.rows[i].Key)
		case got != idx:
			return fmt.Sprintf("row %d: got %s, want %s", i, r.rows[i].Key, ycsb.Key(idx))
		case !bytes.Equal(r.rows[i].Value, valueOf(idx, ver)):
			return fmt.Sprintf("row %d: %s value differs from version %d", i, r.rows[i].Key, ver)
		}
		prev = int64(got)
		i++
	}
	if i != len(r.rows) {
		return fmt.Sprintf("over-complete: %d extra rows", len(r.rows)-i)
	}
	return ""
}
