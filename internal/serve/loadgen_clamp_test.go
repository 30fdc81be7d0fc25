package serve

import (
	"errors"
	"math"
	"testing"

	"cellport/internal/sim"
)

// Satellite regression suite for the diurnal-trough clamp: an amplitude
// above 1 would drive the sinusoid's trough negative, turning the
// thinning probability in arrivalsShaped negative (which accepts every
// candidate — the inverse of the intended load shape). Validate rejects
// such amplitudes at the boundary; rate() clamps at zero as defense in
// depth for callers that bypass validation.

// TestDiurnalAmpBoundary pins the [0, 1] acceptance boundary: both
// endpoints validate cleanly, both sides beyond them are rejected with
// a typed *ConfigError naming the field.
func TestDiurnalAmpBoundary(t *testing.T) {
	for _, amp := range []float64{0, 0.5, 1} {
		cfg := quickConfig()
		cfg.Load = &RateModel{DiurnalAmp: amp}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("DiurnalAmp %v rejected: %v", amp, err)
		}
	}
	for _, amp := range []float64{-0.001, -1, 1.001, 2, math.NaN()} {
		cfg := quickConfig()
		cfg.Load = &RateModel{DiurnalAmp: amp}
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("DiurnalAmp %v validated cleanly", amp)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Load.DiurnalAmp" {
			t.Fatalf("DiurnalAmp %v: error %v does not name Load.DiurnalAmp", amp, err)
		}
	}
}

// TestRateClampsAtZero bypasses validation with an over-unity amplitude
// and checks the instantaneous rate can never go negative: the trough
// clamps to exactly zero instead of handing arrivalsShaped a negative
// thinning probability.
func TestRateClampsAtZero(t *testing.T) {
	m := RateModel{DiurnalAmp: 1.5}.resolve(7, 1000, 100)
	sawZero := false
	for i := 0; i <= 1024; i++ {
		tm := sim.Time(float64(m.period) * float64(i) / 1024)
		r := rateAtTime(&m, tm)
		if r < 0 {
			t.Fatalf("rate(%d) = %v < 0 with DiurnalAmp 1.5", tm, r)
		}
		if r == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("over-unity amplitude never hit the zero clamp across a full period (trough should reach 1 - 1.5 < 0)")
	}
	// An in-range amplitude must never trip the clamp.
	m = RateModel{DiurnalAmp: 1}.resolve(7, 1000, 100)
	for i := 0; i <= 1024; i++ {
		tm := sim.Time(float64(m.period) * float64(i) / 1024)
		if r := rateAtTime(&m, tm); r < 0 {
			t.Fatalf("rate(%d) = %v < 0 with DiurnalAmp 1", tm, r)
		}
	}
}

// TestShapedStreamSurvivesOverAmp generates a shaped stream under the
// bypassed over-unity amplitude: the clamp keeps the stream structurally
// valid (monotone, complete) rather than silently inverting its shape.
func TestShapedStreamSurvivesOverAmp(t *testing.T) {
	const n = 256
	reqs := arrivalSlice(7, n, 50, 1, 0.25, 0, &RateModel{DiurnalAmp: 1.5})
	checkStream(t, reqs, n)
}

// rateAtTime is the model's instantaneous rate at virtual time t.
func rateAtTime(m *resolvedModel, t sim.Time) float64 {
	phase := sim.Duration(t) % m.period
	return m.rate(phase, m.flashAt(phase))
}
