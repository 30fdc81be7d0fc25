package serve

import (
	"errors"
	"math"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// Satellite regression suite for Config.Validate: every degenerate
// field is rejected with a typed *ConfigError naming the field, and the
// zero-selects-default convention means a zero value is never rejected.

func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	mod := func(f func(*Config)) Config {
		cfg := quickConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name      string
		cfg       Config
		wantField string
	}{
		{"negative blades", mod(func(c *Config) { c.Blades = -1 }), "Blades"},
		{"negative queue", mod(func(c *Config) { c.MaxQueue = -2 }), "MaxQueue"},
		{"negative batch", mod(func(c *Config) { c.MaxBatch = -1 }), "MaxBatch"},
		{"negative requests", mod(func(c *Config) { c.Requests = -5 }), "Requests"},
		{"negative pools", mod(func(c *Config) { c.Pools = -1 }), "Pools"},
		{"negative retry budget", mod(func(c *Config) { c.RetryBudget = -1 }), "RetryBudget"},
		{"negative retry backoff", mod(func(c *Config) { c.RetryBackoff = -1 }), "RetryBackoff"},
		{"negative parallel", mod(func(c *Config) { c.Parallel = -4 }), "Parallel"},
		{"NaN rate", mod(func(c *Config) { c.Rate = math.NaN() }), "Rate"},
		{"infinite rate", mod(func(c *Config) { c.Rate = math.Inf(1) }), "Rate"},
		{"negative rate", mod(func(c *Config) { c.Rate = -0.5 }), "Rate"},
		{"NaN offered rate", mod(func(c *Config) { c.OfferedRPS = math.NaN() }), "OfferedRPS"},
		{"negative offered rate", mod(func(c *Config) { c.OfferedRPS = -1 }), "OfferedRPS"},
		{"NaN burst", mod(func(c *Config) { c.Burst = math.NaN() }), "Burst"},
		{"sub-unity burst", mod(func(c *Config) { c.Burst = 0.5 }), "Burst"},
		{"negative burst", mod(func(c *Config) { c.Burst = -2 }), "Burst"},
		{"tall fraction above one", mod(func(c *Config) { c.TallFrac = 1.5 }), "TallFrac"},
		{"negative tall fraction", mod(func(c *Config) { c.TallFrac = -0.1 }), "TallFrac"},
		{"NaN tall fraction", mod(func(c *Config) { c.TallFrac = math.NaN() }), "TallFrac"},
		{"diurnal amplitude above one", mod(func(c *Config) { c.Load = &RateModel{DiurnalAmp: 1.5} }), "Load.DiurnalAmp"},
		{"negative flash count", mod(func(c *Config) { c.Load = &RateModel{FlashCount: -1} }), "Load.FlashCount"},
		{"flash count past any allocation", mod(func(c *Config) { c.Load = &RateModel{FlashCount: 1 << 62, FlashFactor: 2} }), "Load.FlashCount"},
		{"more flash windows than requests", mod(func(c *Config) { c.Load = &RateModel{FlashCount: c.Requests + 1, FlashFactor: 2} }), "Load.FlashCount"},
		{"infinite flash factor", mod(func(c *Config) { c.Load = &RateModel{FlashFactor: math.Inf(1)} }), "Load.FlashFactor"},
		{"negative diurnal period", mod(func(c *Config) { c.Load = &RateModel{Period: -1} }), "Load.Period"},
		{"never-ending blade stall", mod(func(c *Config) {
			c.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.BladeStall, At: 15 * sim.Time(sim.Millisecond), Delay: math.MaxInt64}}}
		}), "Faults"},
		{"blade restart drain past the bound", mod(func(c *Config) {
			c.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.BladeRestart, At: 1, Drain: maxGap + 1}}}
		}), "Faults"},
		{"blade crash past the bound", mod(func(c *Config) {
			c.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.BladeCrash, At: sim.Time(maxGap) + 1}}}
		}), "Faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("degenerate config validated cleanly")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.wantField {
				t.Fatalf("error names field %q, want %q (%v)", ce.Field, tc.wantField, err)
			}
			if ce.Error() == "" {
				t.Fatal("empty error string")
			}
			// The gate is shared: Run must refuse the same config with the
			// same typed error before doing any work.
			if _, runErr := Run(tc.cfg); !errors.As(runErr, &ce) {
				t.Fatalf("Run let the degenerate config through: %v", runErr)
			}
		})
	}
}

// TestValidateAcceptsZeroDefaults pins the convention the rejects lean
// on: zero means "use the default", so an all-zero Config (and zeroed
// sub-configs) must validate.
func TestValidateAcceptsZeroDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config rejected: %v", err)
	}
	cfg := quickConfig()
	cfg.Load = &RateModel{}
	cfg.Autoscale = &Autoscale{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zeroed sub-configs rejected: %v", err)
	}
	if err := fleetConfig(t).Validate(); err != nil {
		t.Fatalf("the fleet test scenario rejected: %v", err)
	}
	// One flash window per request is the bound, also at the default
	// stream length a zero Requests selects.
	for _, requests := range []int{cfg.Requests, 0} {
		c := cfg
		c.Requests = requests
		c.Load = &RateModel{FlashCount: c.withDefaults().Requests, FlashFactor: 2}
		if err := c.Validate(); err != nil {
			t.Fatalf("%d flash windows at Requests %d rejected: %v", c.Load.FlashCount, requests, err)
		}
	}
	// A blade fault exactly at the bound still validates.
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.BladeStall, At: sim.Time(maxGap), Delay: maxGap}}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a blade stall at the bound rejected: %v", err)
	}
}
