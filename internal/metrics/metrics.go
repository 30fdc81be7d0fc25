// Package metrics is the simulator's metrics registry: typed counters,
// gauges and fixed-bucket histograms keyed by (component, name), the
// machine-readable side of the paper's profile-first methodology (Table 1
// and the Eq. 1–3 estimator are both "where does the time go" artifacts).
//
// The registry is built for instrumentation inside the simulation hot
// paths:
//
//   - Updating a metric never allocates: handles are obtained once at
//     wiring time and updates are plain field arithmetic.
//   - Every handle method is nil-safe. Uninstrumented components hold nil
//     handles and pay a single predictable branch, so a machine built
//     without a registry takes its exact unobserved path.
//   - Iteration order is deterministic: snapshots are sorted by
//     (component, name), so dumps are reproducible and diffable.
//
// A Registry belongs to one simulation run (the engine serializes all
// simulated processes, so no locking is needed); cross-run aggregation
// happens on snapshots.
package metrics

import (
	"fmt"
	"sort"
)

// key identifies one metric inside a registry.
type key struct {
	component string
	name      string
}

// Counter is a monotonically increasing value (operation counts, bytes,
// accumulated virtual time in femtoseconds).
type Counter struct {
	v int64
}

// Add increases the counter. Nil-safe: a nil counter discards the update.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value (queue depth, live bytes); SetMax turns
// it into a high-water mark.
type Gauge struct {
	v int64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// SetMax stores v if it exceeds the current value (high-water tracking).
// Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value reports the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i]; the final implicit bucket counts the rest.
// Bounds are fixed at registration, so Observe is allocation-free.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1
	sum    int64
	count  int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count reports the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Registry holds one run's metrics. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is a valid "observability
// off" registry: its lookup methods return nil handles.
type Registry struct {
	counters map[key]*Counter
	gauges   map[key]*Gauge
	hists    map[key]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[key]*Counter{},
		gauges:   map[key]*Gauge{},
		hists:    map[key]*Histogram{},
	}
}

// Counter returns the counter registered under (component, name), creating
// it on first use. On a nil registry it returns nil (a valid no-op handle).
func (r *Registry) Counter(component, name string) *Counter {
	if r == nil {
		return nil
	}
	k := key{component, name}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge registered under (component, name), creating it
// on first use. Nil-registry-safe.
func (r *Registry) Gauge(component, name string) *Gauge {
	if r == nil {
		return nil
	}
	k := key{component, name}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram registered under (component, name) with
// the given ascending bucket bounds, creating it on first use (later calls
// ignore bounds and return the registered instance). Nil-registry-safe.
func (r *Registry) Histogram(component, name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	k := key{component, name}
	h := r.hists[k]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s/%s bounds not ascending: %v", component, name, bounds))
			}
		}
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[k] = h
	}
	return h
}

// Sample is one metric's value in a snapshot.
//
// Component namespaces the metric and doubles as its clock domain:
// simulator registries use machine components ("ppe", "spe",
// "supervisor", ...) whose time-valued metrics are virtual femtoseconds,
// while the real-execution backend puts all its wall-clock counters under
// the single "exec" component. A snapshot should live entirely in one
// domain.
type Sample struct {
	Component string `json:"component"`
	Name      string `json:"name"`
	Type      string `json:"type"` // "counter" | "gauge" | "histogram"
	Value     int64  `json:"value"`
	// Histogram-only fields.
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"` // len(Bounds)+1, last is +Inf
	Sum    int64   `json:"sum,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by
// (component, name, type) so serialization is reproducible.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot copies the registry's current values. On a nil registry it
// returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	for k, c := range r.counters {
		s.Samples = append(s.Samples, Sample{Component: k.component, Name: k.name, Type: "counter", Value: c.v})
	}
	for k, g := range r.gauges {
		s.Samples = append(s.Samples, Sample{Component: k.component, Name: k.name, Type: "gauge", Value: g.v})
	}
	for k, h := range r.hists {
		s.Samples = append(s.Samples, Sample{
			Component: k.component, Name: k.name, Type: "histogram",
			Value:  h.count,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
		})
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Type < b.Type
	})
}

// Get returns the sample for (component, name, type), if present.
func (s *Snapshot) Get(component, name, typ string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Component == component && sm.Name == name && sm.Type == typ {
			return sm, true
		}
	}
	return Sample{}, false
}
