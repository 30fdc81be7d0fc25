// Package metrics is the machine-readable side of the paper's
// profile-first methodology (Table 1 and the Eq. 1–3 estimator are both
// "where does the time go" artifacts): one run's counters, gauges and
// fixed-bucket histograms, keyed by (component, name).
//
// Metrics are harvested, not registered. Every component keeps its own
// counters as plain fields (a Histogram by value; Observe never
// allocates), and after the run a harvest copies them into a Registry,
// one Sample per metric. Nothing on a hot path touches a registry, so a
// run takes the same path with or without one. Snapshots are sorted by
// (component, name, type), so dumps are reproducible and diffable.
package metrics

import "sort"

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i]; the bucket after the last bound counts the
// rest. Bounds is ascending, at most seven long, and shared read-only
// (a package-level slice in the owner); the counts are a fixed array, so
// Observe never allocates.
type Histogram struct {
	Bounds []int64
	counts [8]int64
	sum    int64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry is one run's list of harvested samples; cross-run aggregation
// happens on snapshots. The zero value is ready to use.
type Registry struct {
	samples []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter records a monotonically increasing value (operation counts,
// bytes, accumulated virtual time in femtoseconds).
func (r *Registry) Counter(component, name string, v int64) {
	r.samples = append(r.samples, Sample{Component: component, Name: name, Type: "counter", Value: v})
}

// Gauge records a point-in-time value (a high-water mark, a setting).
func (r *Registry) Gauge(component, name string, v int64) {
	r.samples = append(r.samples, Sample{Component: component, Name: name, Type: "gauge", Value: v})
}

// Histogram records a copy of h: its bounds, its len(Bounds)+1 bucket
// counts, its observation count (as Value) and sum.
func (r *Registry) Histogram(component, name string, h Histogram) {
	r.samples = append(r.samples, Sample{
		Component: component, Name: name, Type: "histogram",
		Value:  h.n,
		Bounds: append([]int64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.counts[:len(h.Bounds)+1]...),
		Sum:    h.sum,
	})
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

// Snapshot returns a sorted copy of the registry's samples.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Samples: append([]Sample(nil), r.samples...)}
	sort.SliceStable(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Type < b.Type
	})
	return s
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
