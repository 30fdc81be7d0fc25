package profile

import (
	"strings"
	"testing"

	"cellport/internal/sim"
)

// fakeClock is a controllable virtual clock.
type fakeClock struct{ now sim.Time }

func (c *fakeClock) advance(d sim.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) fn() func() sim.Time    { return func() sim.Time { return c.now } }

func TestFlatProfileSelfVsCum(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("App", "main")
	clk.advance(10 * sim.Millisecond)
	p.Enter("Feature", "extract")
	clk.advance(80 * sim.Millisecond)
	p.Exit()
	clk.advance(10 * sim.Millisecond)
	p.Exit()

	if p.total != 100*sim.Millisecond {
		t.Fatalf("total = %v", p.total)
	}
	flat := p.Flat()
	if len(flat) != 2 {
		t.Fatalf("flat lines = %d", len(flat))
	}
	// Sorted by self time: extract (80ms) first.
	if flat[0].Name != "Feature::extract" || flat[0].Self != 80*sim.Millisecond {
		t.Fatalf("line0 = %+v", flat[0])
	}
	if flat[1].Name != "App::main" || flat[1].Self != 20*sim.Millisecond ||
		flat[1].Cum != 100*sim.Millisecond {
		t.Fatalf("line1 = %+v", flat[1])
	}
	if got := flat[0].Coverage; got < 0.79 || got > 0.81 {
		t.Fatalf("coverage = %v", got)
	}
}

func TestRecursionDoesNotDoubleCountCum(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("R", "rec")
	clk.advance(sim.Millisecond)
	p.Enter("R", "rec")
	clk.advance(sim.Millisecond)
	p.Exit()
	clk.advance(sim.Millisecond)
	p.Exit()
	flat := p.Flat()
	if flat[0].Cum != 3*sim.Millisecond {
		t.Fatalf("recursive cum = %v, want 3ms", flat[0].Cum)
	}
	if flat[0].Self != 3*sim.Millisecond {
		t.Fatalf("recursive self = %v, want 3ms", flat[0].Self)
	}
	if flat[0].Calls != 2 {
		t.Fatalf("calls = %d", flat[0].Calls)
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New((&fakeClock{}).fn()).Exit()
}

func TestEdgesAttributed(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("A", "main")
	for i := 0; i < 3; i++ {
		p.Enter("B", "work")
		clk.advance(5 * sim.Millisecond)
		p.Exit()
	}
	p.Exit()
	edges := p.Edges()
	if len(edges) != 1 {
		t.Fatalf("edges = %d", len(edges))
	}
	e := edges[0]
	if e.Caller != "A::main" || e.Callee != "B::work" || e.Calls != 3 || e.Time != 15*sim.Millisecond {
		t.Fatalf("edge = %+v", e)
	}
}

func TestReportRenders(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("X", "go")
	clk.advance(sim.Millisecond)
	p.Exit()
	r := p.Report()
	if !strings.Contains(r, "X::go") || !strings.Contains(r, "total profiled") {
		t.Fatalf("report:\n%s", r)
	}
}

// buildMarvelLikeProfile constructs the §5.2 shape: one hot class with a
// clustered helper, several independent extractors, cheap glue.
func buildMarvelLikeProfile() *Profiler {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("App", "main")
	clk.advance(sim.Millisecond) // glue

	p.Enter("ColorCorrelogram", "extract")
	p.Enter("ColorCorrelogram", "quantize")
	clk.advance(10 * sim.Millisecond)
	p.Exit()
	p.Enter("ColorCorrelogram", "windowCount")
	clk.advance(44 * sim.Millisecond)
	p.Exit()
	p.Exit()

	p.Enter("EdgeHistogram", "extract")
	clk.advance(28 * sim.Millisecond)
	p.Exit()

	p.Enter("ColorHistogram", "extract")
	clk.advance(8 * sim.Millisecond)
	p.Exit()

	p.Enter("Texture", "extract")
	clk.advance(6 * sim.Millisecond)
	p.Exit()

	p.Enter("Concepts", "detect")
	clk.advance(2 * sim.Millisecond)
	p.Exit()

	p.Exit()
	return p
}

func TestIdentifyKernelsClustersWithinClass(t *testing.T) {
	p := buildMarvelLikeProfile()
	cands := p.IdentifyKernels(IdentifyOptions{MinCoreCoverage: 0.02, MaxCandidates: 8})
	if len(cands) != 5 {
		t.Fatalf("candidates = %d: %+v", len(cands), cands)
	}
	// Highest coverage first: the correlogram cluster, with both methods.
	top := cands[0]
	if top.Class != "ColorCorrelogram" {
		t.Fatalf("top candidate class = %s", top.Class)
	}
	if len(top.Methods) != 3 { // extract, quantize, windowCount
		t.Fatalf("cluster methods = %v", top.Methods)
	}
	if top.Coverage < 0.50 || top.Coverage > 0.58 {
		t.Fatalf("cluster coverage = %v", top.Coverage)
	}
	// No cluster may cross class boundaries.
	for _, c := range cands {
		for _, m := range c.Methods {
			if !strings.HasPrefix(m, c.Class+"::") {
				t.Fatalf("cluster %s contains foreign method %s", c.Class, m)
			}
		}
	}
}

func TestIdentifyKernelsThreshold(t *testing.T) {
	p := buildMarvelLikeProfile()
	cands := p.IdentifyKernels(IdentifyOptions{MinCoreCoverage: 0.20})
	// Only correlogram (54%) and edge (28%) cores pass 20%.
	if len(cands) != 2 {
		t.Fatalf("candidates at 20%% = %d: %+v", len(cands), cands)
	}
	cands = p.IdentifyKernels(IdentifyOptions{MinCoreCoverage: 0.02, MaxCandidates: 1})
	if len(cands) != 1 {
		t.Fatalf("MaxCandidates ignored: %d", len(cands))
	}
}

// TestRepeatedCallsAllocateNothing checks that once a call path has been
// seen, entering and leaving it again allocates nothing: nodes and edges
// are found by key, not by a freshly formatted name.
func TestRepeatedCallsAllocateNothing(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.fn())
	p.Enter("App", "main")
	call := func() {
		p.Enter("Feature", "extract")
		p.Enter("Feature", "histogram")
		clk.advance(sim.Millisecond)
		p.Exit()
		p.Exit()
	}
	call()
	// AllocsPerRun makes one warm-up call beside the 100 it measures.
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Fatalf("a repeated call path allocates %.1f objects", allocs)
	}
	p.Exit()
	edges := p.Edges()
	if len(edges) != 2 || edges[0].Caller != "App::main" || edges[0].Callee != "Feature::extract" ||
		edges[1].Caller != "Feature::extract" || edges[1].Callee != "Feature::histogram" || edges[1].Calls != 102 {
		t.Fatalf("edges = %+v", edges)
	}
}
