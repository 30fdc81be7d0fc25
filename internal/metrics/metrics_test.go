package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

var sizeBounds = []int64{128, 1024, 16384}

func TestMetricsCounterGaugeHistogram(t *testing.T) {
	h := Histogram{Bounds: sizeBounds}
	for _, v := range []int64{64, 128, 129, 4096, 99999} {
		h.Observe(v)
	}
	r := NewRegistry()
	r.Counter("spe0", "commands", 5)
	r.Gauge("spe0", "queue_peak", 7)
	r.Histogram("mfc0", "dma_size", h)
	h.Observe(1) // the registry holds a copy
	s := r.Snapshot()
	if c, ok := s.Get("spe0", "commands", "counter"); !ok || c.Value != 5 {
		t.Fatalf("counter = %+v, %v; want 5", c, ok)
	}
	if g, ok := s.Get("spe0", "queue_peak", "gauge"); !ok || g.Value != 7 {
		t.Fatalf("gauge = %+v, %v; want 7", g, ok)
	}
	got, ok := s.Get("mfc0", "dma_size", "histogram")
	want := Sample{
		Component: "mfc0", Name: "dma_size", Type: "histogram",
		Value:  5,
		Bounds: sizeBounds,
		Counts: []int64{2, 1, 1, 1}, // <=128: {64,128}; <=1024: {129}; <=16384: {4096}; rest: {99999}
		Sum:    64 + 128 + 129 + 4096 + 99999,
	}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("histogram = %+v, want %+v", got, want)
	}
}

func TestMetricsObserveDoesNotAllocate(t *testing.T) {
	h := Histogram{Bounds: sizeBounds}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(300) }); allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per run, want 0", allocs)
	}
}

func TestMetricsSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	// Harvest in scrambled order; the snapshot must sort.
	r.Counter("z", "a", 1)
	r.Gauge("a", "z", 1)
	r.Counter("a", "a", 1)
	r.Histogram("m", "h", Histogram{Bounds: []int64{1}})
	s := r.Snapshot()
	var order []string
	for _, sm := range s.Samples {
		order = append(order, sm.Component+"/"+sm.Name)
	}
	if want := []string{"a/a", "a/z", "m/h", "z/a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("snapshot order %v, want %v", order, want)
	}
	if r.samples[0].Component != "z" {
		t.Fatal("Snapshot reordered the registry instead of a copy")
	}

	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two snapshots of the same registry serialized differently")
	}
	var doc Snapshot
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}
