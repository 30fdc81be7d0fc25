package metrics

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spe0", "commands")
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("spe0", "commands") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("spe0", "queue_peak")
	g.SetMax(3)
	g.SetMax(7)
	g.SetMax(2)
	if g.Value() != 7 {
		t.Fatalf("gauge high-water = %d, want 7", g.Value())
	}
	g.Set(1)
	if g.Value() != 1 {
		t.Fatalf("gauge after Set = %d, want 1", g.Value())
	}

	h := r.Histogram("mfc0", "dma_size", []int64{128, 1024, 16384})
	for _, v := range []int64{64, 128, 129, 4096, 99999} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	s, ok := r.Snapshot().Get("mfc0", "dma_size", "histogram")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []int64{2, 1, 1, 1} // <=128: {64,128}; <=1024: {129}; <=16384: {4096}; rest: {99999}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Sum != 64+128+129+4096+99999 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "y")
	g := r.Gauge("x", "y")
	h := r.Histogram("x", "y", []int64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Add(1)
	c.Add(1)
	g.Set(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestHotPathUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spe0", "ops")
	g := r.Gauge("spe0", "depth")
	h := r.Histogram("spe0", "sizes", []int64{16, 256, 4096})
	var nilC *Counter
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		g.SetMax(9)
		h.Observe(300)
		nilC.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("hot-path updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	// Register in scrambled order; snapshot must sort.
	r.Counter("z", "a").Add(1)
	r.Gauge("a", "z").Set(1)
	r.Counter("a", "a").Add(1)
	r.Histogram("m", "h", []int64{1}).Observe(0)
	s := r.Snapshot()
	if !sort.SliceIsSorted(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Type < b.Type
	}) {
		t.Fatalf("snapshot not sorted: %+v", s.Samples)
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

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic at registration")
		}
	}()
	NewRegistry().Histogram("x", "y", []int64{5, 5})
}
