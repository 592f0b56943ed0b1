package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// Fewer than that and the percentile is one or two unlucky operations, not
// a property of the system.
const minTail = 10

// latency summarizes one operation type's bench-timed latencies.
type latency struct {
	N   int
	P50 float64 // µs
	P90 float64 // µs
	P99 float64 // µs
	// minN is the fewest samples any window held: a percentile is
	// reportable only if every window has minTail samples beyond it.
	minN int
}

// tailOK reports whether the q-quantile is reportable.
func (l latency) tailOK(q float64) bool { return beyond(l.minN, q) >= minTail }

// summarize sorts samples (nanoseconds) in place and reduces them.
func summarize(samples []int64) latency {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	l := latency{N: len(samples), minN: len(samples)}
	if l.N == 0 {
		return l
	}
	l.P50 = float64(quantile(samples, 0.50)) / 1e3
	l.P90 = float64(quantile(samples, 0.90)) / 1e3
	l.P99 = float64(quantile(samples, 0.99)) / 1e3
	return l
}

// windowed splits samples (nanoseconds) at ends, the offset where each
// window stops, and returns the median over windows of each window's
// percentiles. A median of windows keeps one window that a host hiccup or a
// large background compaction slowed from moving the run's figure.
func windowed(samples []int64, ends []int) latency {
	l := latency{N: len(samples)}
	var p50s, p90s, p99s []float64
	from := 0
	for _, to := range ends {
		w := summarize(append([]int64(nil), samples[from:to]...))
		if len(p50s) == 0 || w.N < l.minN {
			l.minN = w.N
		}
		p50s = append(p50s, w.P50)
		p90s = append(p90s, w.P90)
		p99s = append(p99s, w.P99)
		from = to
	}
	l.P50, l.P90, l.P99 = median(p50s), median(p90s), median(p99s)
	return l
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank q-quantile's
// position among n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// ratio divides, reading 0 when nothing was divided by (a layer that did
// no work on a workload reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of vals (sorted in place); 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}

// fingerprint is the LSM shape a set-up leaves behind. Two set-ups of the
// same workload must produce identical fingerprints: otherwise the
// measured phase probes a different tree and runs are not comparable.
type fingerprint struct {
	LoadFlushes     uint64
	LoadCompactions uint64
	RunsPerLevel    []int
	DiskBytes       int64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("flushes=%d compactions=%d runs/level=%v disk_bytes=%d",
		f.LoadFlushes, f.LoadCompactions, f.RunsPerLevel, f.DiskBytes)
}

// diff describes how g differs from f ("" when identical). Trailing empty
// levels are not a difference.
func (f fingerprint) diff(g fingerprint) string {
	var out []string
	if f.LoadFlushes != g.LoadFlushes {
		out = append(out, fmt.Sprintf("flushes %d != %d", f.LoadFlushes, g.LoadFlushes))
	}
	if f.LoadCompactions != g.LoadCompactions {
		out = append(out, fmt.Sprintf("compactions %d != %d", f.LoadCompactions, g.LoadCompactions))
	}
	a, b := trimLevels(f.RunsPerLevel), trimLevels(g.RunsPerLevel)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		out = append(out, fmt.Sprintf("runs/level %v != %v", a, b))
	}
	if f.DiskBytes != g.DiskBytes {
		out = append(out, fmt.Sprintf("disk bytes %d != %d", f.DiskBytes, g.DiskBytes))
	}
	return strings.Join(out, "; ")
}

func trimLevels(l []int) []int {
	for len(l) > 0 && l[len(l)-1] == 0 {
		l = l[:len(l)-1]
	}
	return l
}
