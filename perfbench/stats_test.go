package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"elsm"
	"elsm/internal/ycsb"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0, 10}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {5000, true}} {
		samples := make([]int64, c.n)
		for i := range samples {
			samples[i] = int64(c.n - i) // unsorted on purpose
		}
		l := summarize(samples)
		if l.tailOK(0.99) != c.ok {
			t.Errorf("n=%d: tailOK(0.99) = %v, want %v (beyond = %d)", c.n, l.tailOK(0.99), c.ok, beyond(c.n, 0.99))
		}
		if c.n == 1000 && (l.P50 != 0.5 || l.P99 != 0.99) {
			t.Errorf("n=1000: p50 %v µs, p99 %v µs; want 0.5 and 0.99", l.P50, l.P99)
		}
	}
}

func TestWindowedMedians(t *testing.T) {
	// Three windows of 1000 samples; the middle one is ten times slower.
	var s []int64
	for _, scale := range []int64{1, 10, 2} {
		for i := int64(1); i <= 1000; i++ {
			s = append(s, i*scale*1000)
		}
	}
	l := windowed(s, []int{1000, 2000, 3000})
	if l.N != 3000 || l.P50 != 1000 || l.P90 != 1800 || l.P99 != 1980 {
		t.Errorf("windowed = %+v, want N 3000 and the third window's p50 1000, p90 1800, p99 1980 µs", l)
	}
	if !l.tailOK(0.99) {
		t.Error("1000 samples per window: p99 should be reportable")
	}
	if l := windowed(s[:2999], []int{1000, 2000, 2999}); l.tailOK(0.99) || !l.tailOK(0.90) {
		t.Error("a 999-sample window must block the p99 but not the p90")
	}
}

func TestAmplificationRatios(t *testing.T) {
	p := &phase{ops: 10, writes: 4}
	p.end.fs.WriteBytes[kindWAL] = 4 * recordSize * 2
	p.end.fs.WriteBytes[kindSST] = 4 * recordSize * 6
	p.end.fs.Writes[kindWAL] = 8
	p.end.fs.Syncs[kindWAL] = 4
	p.end.st.BytesCompacted = 4 * recordSize * 3
	p.end.st.ECalls = 25
	got := map[string]float64{}
	for _, m := range layerMetrics(workloads[2], p, 0, 0, 0, 0) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", m.name, m.Value)
		}
		got[m.name] = m.Value
	}
	for name, want := range map[string]float64{
		"vfs.bytes_written_per_user_byte":   8,
		"vfs.wal_bytes_per_user_byte":       2,
		"vfs.sst_bytes_per_user_byte":       6,
		"vfs.syncs_per_update":              1,
		"vfs.writes":                        8,
		"lsm.bytes_compacted_per_user_byte": 3,
		"sgx.ecalls_per_op":                 2.5,
		"core.runs_probed_per_get":          0, // no Gets: 0, not NaN
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "elsm", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "sgx", Start: 30, End: 60}, // overlaps 2: counted once
		{ID: 4, Parent: 2, Layer: "vfs", Start: 15, End: 20},
		{ID: 5, Parent: 2, Layer: "vfs", Start: 35, End: 45}, // runs past its parent
		{ID: 6, Layer: "vfs", Bg: true, Start: 50, End: 70},
	}
	got := selfTimes(spans)
	want := map[string]int64{"bench": 50, "elsm": 20, "sgx": 30, "vfs": 15, "vfs_bg": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestFingerprintDiff(t *testing.T) {
	a := fingerprint{LoadFlushes: 196, LoadCompactions: 230, RunsPerLevel: []int{0, 1, 1, 1, 1, 0}, DiskBytes: 71307293}
	b := a
	b.RunsPerLevel = []int{0, 1, 1, 1, 1}
	if d := a.diff(b); d != "" {
		t.Errorf("trailing empty levels reported as a difference: %s", d)
	}
	b.DiskBytes++
	b.RunsPerLevel = []int{0, 1, 2, 1, 1}
	d := a.diff(b)
	if !strings.Contains(d, "disk bytes") || !strings.Contains(d, "runs/level") || strings.Contains(d, "flushes") {
		t.Errorf("diff = %q, want disk bytes and runs/level only", d)
	}
}

func TestScanOracle(t *testing.T) {
	r := &runner{model: keyModel{ver: map[uint64]uint32{}}}
	r.model.write(5) // a fresh key between loaded keys 4 and 8
	r.model.write(8) // an update of a loaded key
	row := func(idx uint64, ver uint32) elsm.Result {
		return elsm.Result{Key: ycsb.Key(idx), Value: valueOf(idx, ver)}
	}
	for _, c := range []struct {
		name string
		rows []elsm.Result
		want string
	}{
		{"exact", []elsm.Result{row(4, 0), row(5, 1), row(8, 1)}, ""},
		{"missing", []elsm.Result{row(4, 0), row(8, 1)}, "want"},
		{"incomplete", []elsm.Result{row(4, 0), row(5, 1)}, "incomplete"},
		{"extra", []elsm.Result{row(4, 0), row(5, 1), row(8, 1), row(9, 0)}, "over-complete"},
		{"order", []elsm.Result{row(4, 0), row(8, 1), row(5, 1)}, "want"},
		{"stale", []elsm.Result{row(4, 0), row(5, 1), row(8, 0)}, "value differs"},
	} {
		r.rows = c.rows
		got := r.checkScan(4, 11)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: checkScan = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches checks the contract file against the code: the
// same workloads, and every metric it lists is one a run reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, have)
	}
	p := &phase{ends: [][numOpKinds]int{{}}, rates: []float64{1}}
	e2e := e2eMetrics(p, latency{}, []float64{1}, fingerprint{}, 1)
	layer := append(layerMetrics(workloads[0], p, 0, 0, 0, 0), selfMetrics(workloads[0], p, p, [numOpKinds]latency{})...)
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    []namedMetric
	}{{spec.EndToEnd, e2e}, {spec.PerLayer, layer}} {
		units := map[string]string{}
		for _, m := range c.got {
			units[m.name] = m.Unit
		}
		if len(units) != len(c.listed) {
			t.Errorf("code reports %d metrics, BENCHMARK.json lists %d", len(units), len(c.listed))
		}
		for _, m := range c.listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): code reports unit %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}
