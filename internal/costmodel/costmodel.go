// Package costmodel converts hardware cost budgets (CPU cycles for SGX world
// switches, enclave page eviction, per-byte copies) into deterministic CPU
// work, so that benchmarks of the simulated enclave reproduce the *relative*
// cost structure of real SGX hardware without requiring an SGX CPU.
//
// The model is calibrated once per process: a short timing loop measures how
// many iterations of an opaque arithmetic kernel this machine executes per
// nanosecond, after which Spin(d) burns approximately d of CPU time without
// sleeping (sleeping would hide the cost from CPU-bound benchmarks).
//
// Unit tests use Zero (all charges are no-ops) so functional tests stay fast.
package costmodel

import (
	"sync/atomic"
	"time"
)

// Model describes the simulated hardware cost of each enclave-related event.
// A zero-valued Model charges nothing and is safe to use.
type Model struct {
	// WorldSwitch is charged once per enclave boundary crossing direction
	// (an OCall costs two: exit + re-enter). Real SGX: ~8k–14k cycles.
	WorldSwitch time.Duration
	// PageFault is charged per 4 KiB enclave page that must be evicted and
	// reloaded when the enclave working set exceeds the EPC. Real SGX EWB +
	// ELDU round trip: ~40k cycles.
	PageFault time.Duration
	// EnclaveCopyPerKB is charged per KiB copied across the enclave
	// boundary (the "extra copy" S1 in the paper, §4.2).
	EnclaveCopyPerKB time.Duration
	// MEEPerKB models the memory-encryption-engine overhead for touching
	// enclave-resident data (charged on reads/writes of enclave regions).
	MEEPerKB time.Duration
}

// Zero charges nothing. Use in unit tests.
var Zero = Model{}

// Calibrated returns the default model used by the paper-reproduction
// benchmarks. The durations correspond to published SGX microbenchmarks
// (Orenbach et al., EuroSys'17; Weisse et al., ISCA'17) at ~2.7 GHz:
//
//	world switch ≈ 3 µs, EPC page fault ≈ 12 µs,
//	cross-boundary copy ≈ 150 ns/KiB, MEE ≈ 25 ns/KiB.
func Calibrated() Model {
	return Model{
		WorldSwitch:      3 * time.Microsecond,
		PageFault:        12 * time.Microsecond,
		EnclaveCopyPerKB: 150 * time.Nanosecond,
		MEEPerKB:         25 * time.Nanosecond,
	}
}

// Scaled returns Calibrated with every term multiplied by f. Useful for
// sensitivity/ablation benchmarks.
func Scaled(f float64) Model {
	c := Calibrated()
	return Model{
		WorldSwitch:      time.Duration(float64(c.WorldSwitch) * f),
		PageFault:        time.Duration(float64(c.PageFault) * f),
		EnclaveCopyPerKB: time.Duration(float64(c.EnclaveCopyPerKB) * f),
		MEEPerKB:         time.Duration(float64(c.MEEPerKB) * f),
	}
}

// IsZero reports whether the model charges nothing, letting hot paths skip
// accounting entirely.
func (m Model) IsZero() bool {
	return m.WorldSwitch == 0 && m.PageFault == 0 && m.EnclaveCopyPerKB == 0 && m.MEEPerKB == 0
}

// itersPerMicro is the calibrated number of spinKernel iterations per
// microsecond of wall time. 0 means not yet calibrated.
var itersPerMicro atomic.Int64

// sink defeats dead-code elimination of the spin kernel.
var sink atomic.Uint64

// spinKernel burns n iterations of integer work. The xorshift mix prevents
// the compiler from collapsing the loop.
func spinKernel(n int64) {
	var x uint64 = 88172645463325252
	for i := int64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(x)
}

// calibrate measures the kernel's speed. It runs once per process, lazily,
// so importing this package has no init-time cost (per the style guide's
// "avoid init side effects").
func calibrate() int64 {
	if v := itersPerMicro.Load(); v > 0 {
		return v
	}
	const probe = 2_000_000
	var rates [3]int64
	for trial := range rates {
		start := time.Now()
		spinKernel(probe)
		el := time.Since(start)
		if el <= 0 {
			el = time.Nanosecond
		}
		rates[trial] = int64(float64(probe) / (float64(el) / float64(time.Microsecond)))
	}
	best := fastestRate(rates[:])
	itersPerMicro.Store(best)
	return best
}

// fastestRate picks the calibration rate, in iterations per microsecond,
// from the trials' measurements: the fastest, and at least 1. Preemption
// only ever slows a trial, so the fastest is the closest to the kernel's
// true speed; keeping a slow one would make every later Spin undercharge.
func fastestRate(rates []int64) int64 {
	best := int64(1)
	for _, r := range rates {
		best = max(best, r)
	}
	return best
}

// Spin burns approximately d of CPU time. It never sleeps: the cost must be
// visible to CPU-bound benchmark loops exactly like real enclave overhead.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	ipm := calibrate()
	iters := int64(float64(d) / float64(time.Microsecond) * float64(ipm))
	if iters < 1 {
		iters = 1
	}
	spinKernel(iters)
}

// Charge burns n×d of CPU time. It exists so callers can express "n page
// faults" without multiplying durations at every call site.
func Charge(d time.Duration, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	Spin(time.Duration(n) * d)
}

// ChargeBytes burns the per-KiB rate for n bytes (rounded up to a whole KiB).
func ChargeBytes(perKB time.Duration, n int) {
	if perKB <= 0 || n <= 0 {
		return
	}
	kb := (n + 1023) / 1024
	Spin(time.Duration(kb) * perKB)
}
