package costmodel

import (
	"testing"
	"time"
)

func TestZeroModelIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if Calibrated().IsZero() {
		t.Fatal("Calibrated().IsZero() = true")
	}
}

func TestSpinBurnsApproximateTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	start := time.Now()
	Spin(5 * time.Millisecond)
	el := time.Since(start)
	if el < 2*time.Millisecond {
		t.Fatalf("Spin(5ms) returned after %v", el)
	}
	if el > 100*time.Millisecond {
		t.Fatalf("Spin(5ms) took %v", el)
	}
}

func TestSpinZeroAndNegative(t *testing.T) {
	Spin(0)
	Spin(-time.Second) // must return immediately, not hang
}

func TestChargeMultiplies(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	start := time.Now()
	Charge(time.Millisecond, 5)
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("Charge(1ms, 5) took only %v", el)
	}
	Charge(time.Millisecond, 0) // no-op
}

func TestCalibrationKeepsFastestTrial(t *testing.T) {
	// The middle trial was preempted and ran at a tenth of the speed.
	if got := fastestRate([]int64{980, 98, 1000}); got != 1000 {
		t.Fatalf("fastestRate = %d, want 1000", got)
	}
	if got := fastestRate([]int64{0, -5}); got != 1 {
		t.Fatalf("fastestRate of degenerate trials = %d, want 1", got)
	}
}

func TestChargeBytesRounding(t *testing.T) {
	// 1 byte rounds up to 1 KiB; just ensure no panic and fast return at
	// tiny rates.
	ChargeBytes(time.Nanosecond, 1)
	ChargeBytes(time.Nanosecond, 0)
	ChargeBytes(0, 1<<20)
}

func TestScaled(t *testing.T) {
	half := Scaled(0.5)
	cal := Calibrated()
	if half.WorldSwitch != cal.WorldSwitch/2 {
		t.Fatalf("scaled world switch = %v", half.WorldSwitch)
	}
	if half.PageFault != cal.PageFault/2 {
		t.Fatalf("scaled page fault = %v", half.PageFault)
	}
}
