// Package profile implements the §3.2 profiling step: a gprof/Xprofiler
// analog that attributes virtual execution time to the methods of an
// instrumented application, builds the call graph, and identifies
// candidate SPE kernels — the most expensive computation cores, grown
// into clusters of related methods without crossing class boundaries
// ("this grouping should not cross class boundaries, due to potential
// data accessibility complications").
package profile

import (
	"fmt"
	"sort"
	"strings"

	"cellport/internal/sim"
)

// Profiler accumulates per-method timing for one run. It is driven by the
// instrumented application through Enter/Exit pairs; time is read from the
// supplied virtual clock.
type Profiler struct {
	clock func() sim.Time
	nodes map[nodeKey]*Node
	edges map[edgeKey]*Edge
	stack []frame
	start sim.Time
	total sim.Duration
	began bool
}

type frame struct {
	node      *Node
	start     sim.Time
	childTime sim.Duration
}

// Node is one profiled method.
type Node struct {
	// Class and Method name the code location, C++-style
	// ("ColorHistogram", "extract").
	Class, Method string
	// Self is time spent in the method excluding callees.
	Self sim.Duration
	// Cum is time including callees (top-level invocations only, so
	// recursion does not double-count).
	Cum sim.Duration
	// Calls counts invocations.
	Calls uint64

	onStack int
}

// Name returns the qualified method name.
func (n *Node) Name() string { return n.Class + "::" + n.Method }

// nodeKey and edgeKey key the maps without building qualified names:
// Enter and Exit run once per profiled call, and a name is formatted only
// when a node's edge is first recorded.
type nodeKey struct{ class, method string }

type edgeKey struct{ caller, callee *Node }

// Edge is a call-graph edge with attributed time.
type Edge struct {
	Caller, Callee string
	Calls          uint64
	Time           sim.Duration
}

// New returns a profiler reading the given virtual clock.
func New(clock func() sim.Time) *Profiler {
	return &Profiler{
		clock: clock,
		nodes: make(map[nodeKey]*Node),
		edges: make(map[edgeKey]*Edge),
	}
}

func (p *Profiler) node(class, method string) *Node {
	key := nodeKey{class, method}
	n := p.nodes[key]
	if n == nil {
		n = &Node{Class: class, Method: method}
		p.nodes[key] = n
	}
	return n
}

// Enter records entry into class::method. Calls must be balanced with
// Exit; the profiler measures wall (virtual) time between them.
func (p *Profiler) Enter(class, method string) {
	if !p.began {
		p.began = true
		p.start = p.clock()
	}
	n := p.node(class, method)
	n.Calls++
	n.onStack++
	p.stack = append(p.stack, frame{node: n, start: p.clock()})
}

// Exit closes the innermost Enter.
func (p *Profiler) Exit() {
	if len(p.stack) == 0 {
		panic("profile: Exit without matching Enter")
	}
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	elapsed := p.clock().Sub(f.start)
	f.node.Self += elapsed - f.childTime
	f.node.onStack--
	if f.node.onStack == 0 {
		f.node.Cum += elapsed
	}
	if len(p.stack) > 0 {
		parent := &p.stack[len(p.stack)-1]
		parent.childTime += elapsed
		k := edgeKey{parent.node, f.node}
		e := p.edges[k]
		if e == nil {
			e = &Edge{Caller: k.caller.Name(), Callee: k.callee.Name()}
			p.edges[k] = e
		}
		e.Calls++
		e.Time += elapsed
	} else {
		p.total = p.clock().Sub(p.start)
	}
}

// Line is one row of the flat profile.
type Line struct {
	Name     string
	Class    string
	Self     sim.Duration
	Cum      sim.Duration
	Calls    uint64
	Coverage float64 // Self / Total
}

// Flat returns the flat profile sorted by self time, descending.
func (p *Profiler) Flat() []Line {
	out := make([]Line, 0, len(p.nodes))
	for _, n := range p.nodes {
		cov := 0.0
		if p.total > 0 {
			cov = n.Self.Seconds() / p.total.Seconds()
		}
		out = append(out, Line{
			Name: n.Name(), Class: n.Class,
			Self: n.Self, Cum: n.Cum, Calls: n.Calls, Coverage: cov,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Edges returns the call graph sorted by attributed time, descending.
func (p *Profiler) Edges() []Edge {
	out := make([]Edge, 0, len(p.edges))
	for _, e := range p.edges {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Caller+out[i].Callee < out[j].Caller+out[j].Callee
	})
	return out
}

// Report renders a gprof-style flat profile.
func (p *Profiler) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %10s %10s %8s %7s\n", "method", "self", "cum", "calls", "cover")
	for _, l := range p.Flat() {
		fmt.Fprintf(&b, "%-42s %10s %10s %8d %6.1f%%\n",
			l.Name, l.Self, l.Cum, l.Calls, l.Coverage*100)
	}
	fmt.Fprintf(&b, "total profiled time: %s\n", p.total)
	return b.String()
}
