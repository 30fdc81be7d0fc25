package serve

import (
	"fmt"
	"math"

	"cellport/internal/sim"
)

// ConfigError reports one rejected Config field. Callers (paperbench)
// match on the type to distinguish a bad configuration (usage error,
// exit 2) from a failed run.
type ConfigError struct {
	Field  string
	Value  interface{}
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

func badField(field string, value interface{}, reason string) error {
	return &ConfigError{Field: field, Value: value, Reason: reason}
}

// Validate rejects degenerate Config values before they can panic the
// pool or spin the load generator. The convention is the one
// withDefaults documents: a zero value selects that field's default, so
// zero is always accepted; what Validate rejects is an explicit
// out-of-range request — negative counts, a non-finite or negative
// rate, a fraction outside [0, 1], a burst in (0, 1) that would invert
// the geometric burst-size distribution, more flash windows than
// requests, a blade fault past maxGap (about 38 minutes), whose end
// could reach sim.Never and never fire.
// Run calls it first, so every entry point shares the same gate.
func (c Config) Validate() error {
	switch {
	case c.Blades < 0:
		return badField("Blades", c.Blades, "blade count cannot be negative")
	case c.MaxQueue < 0:
		return badField("MaxQueue", c.MaxQueue, "queue bound cannot be negative")
	case c.MaxBatch < 0:
		return badField("MaxBatch", c.MaxBatch, "batch bound cannot be negative")
	case c.Requests < 0:
		return badField("Requests", c.Requests, "request count cannot be negative")
	case c.Pools < 0:
		return badField("Pools", c.Pools, "pool count cannot be negative")
	case c.RetryBudget < 0:
		return badField("RetryBudget", c.RetryBudget, "retry budget cannot be negative")
	case c.RetryBackoff < 0:
		return badField("RetryBackoff", c.RetryBackoff, "retry backoff cannot be negative")
	case c.Parallel < 0:
		return badField("Parallel", c.Parallel, "worker bound cannot be negative")
	}
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return badField("Rate", c.Rate, "rate must be finite")
	}
	if c.Rate < 0 {
		return badField("Rate", c.Rate, "offered-load multiple cannot be negative")
	}
	if math.IsNaN(c.OfferedRPS) || math.IsInf(c.OfferedRPS, 0) {
		return badField("OfferedRPS", c.OfferedRPS, "offered rate must be finite")
	}
	if c.OfferedRPS < 0 {
		return badField("OfferedRPS", c.OfferedRPS, "offered rate cannot be negative")
	}
	if math.IsNaN(c.Burst) || math.IsInf(c.Burst, 0) {
		return badField("Burst", c.Burst, "burst must be finite")
	}
	if c.Burst != 0 && c.Burst < 1 {
		return badField("Burst", c.Burst, "mean burst size must be at least 1 (0 selects the default)")
	}
	if math.IsNaN(c.TallFrac) || c.TallFrac < 0 || c.TallFrac > 1 {
		return badField("TallFrac", c.TallFrac, "fraction must lie in [0, 1]")
	}
	if c.Load != nil {
		requests := c.Requests
		if requests == 0 {
			requests = defaultRequests
		}
		if err := c.Load.validate(requests); err != nil {
			return err
		}
	}
	for _, f := range c.Faults.FleetFaults() {
		if f.At > sim.Time(maxGap) || f.Delay > maxGap || f.Drain > maxGap {
			return badField("Faults", f, fmt.Sprintf("a blade fault's at, delay and drain must each be at most %v", maxGap))
		}
	}
	return nil
}

// validate checks the model against a run of the given stream length.
// Resolving the model allocates one start per flash window, so the
// count is bounded by the stream length: a window per request is
// already more than any stream can show.
func (m *RateModel) validate(requests int) error {
	if math.IsNaN(m.DiurnalAmp) || m.DiurnalAmp < 0 || m.DiurnalAmp > 1 {
		return badField("Load.DiurnalAmp", m.DiurnalAmp, "diurnal amplitude must lie in [0, 1]")
	}
	if m.FlashCount < 0 {
		return badField("Load.FlashCount", m.FlashCount, "flash-crowd count cannot be negative")
	}
	if m.FlashCount > requests {
		return badField("Load.FlashCount", m.FlashCount, fmt.Sprintf("flash-crowd count cannot exceed the %d requests of the run", requests))
	}
	if math.IsNaN(m.FlashFactor) || math.IsInf(m.FlashFactor, 0) || m.FlashFactor < 0 {
		return badField("Load.FlashFactor", m.FlashFactor, "flash factor must be finite and non-negative")
	}
	if m.Period < 0 {
		return badField("Load.Period", m.Period, "diurnal period cannot be negative")
	}
	return nil
}
