package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"cellport/internal/cell"
	"cellport/internal/marvel"
	"cellport/internal/metrics"
	"cellport/internal/serve"
	"cellport/internal/trace"
)

// Collector gathers per-run observability artifacts across an experiment:
// each labelled ported run contributes its span/instant recording and its
// metrics snapshot. Runs execute concurrently through the worker pool, so
// Add is mutex-guarded; exported output is sorted by label, keeping the
// artifacts deterministic regardless of completion order.
type Collector struct {
	mu   sync.Mutex
	runs []CollectedRun
}

// CollectedRun is one ported run's observability record.
type CollectedRun struct {
	Label   string
	Trace   *trace.Recorder
	Metrics *metrics.Snapshot
}

// Add records one run. Nil-safe: a nil collector discards the record, so
// experiment code can call it unconditionally.
func (c *Collector) Add(label string, res *marvel.PortedResult) {
	if c == nil || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, CollectedRun{Label: label, Trace: res.Trace, Metrics: res.Metrics})
}

// AddArtifacts records an observability artifact that did not come from
// a single ported run — e.g. one serving blade's batch timeline and
// counters. Nil-safe on the collector and on either artifact.
func (c *Collector) AddArtifacts(label string, rec *trace.Recorder, snap *metrics.Snapshot) {
	if c == nil || (rec == nil && snap == nil) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, CollectedRun{Label: label, Trace: rec, Metrics: snap})
}

// collectServe files one serve run's artifacts in c: each blade's trace
// and metrics under prefix/bladeN, the coordinator's under prefix/sim.
// It returns the run's epoch count for the caller's total.
func collectServe(c *Collector, prefix string, rep *serve.Report) uint64 {
	for _, bs := range rep.PerBlade {
		c.AddArtifacts(fmt.Sprintf("%s/blade%d", prefix, bs.Blade), bs.Trace, bs.Metrics)
	}
	if rep.Coordinator != nil || rep.Sim != nil {
		c.AddArtifacts(prefix+"/sim", rep.Coordinator, rep.Sim)
	}
	return rep.Epochs
}

// Runs returns the collected records sorted by label (ties keep insertion
// order).
func (c *Collector) Runs() []CollectedRun {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]CollectedRun(nil), c.runs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// WriteChromeTrace exports every collected run as one Chrome trace
// document: one process per run (pid in label order), one thread track
// per lane.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	var procs []trace.ChromeProcess
	for i, r := range c.Runs() {
		if r.Trace == nil {
			continue
		}
		procs = append(procs, trace.ChromeProcess{Pid: i + 1, Name: r.Label, Rec: r.Trace})
	}
	return trace.WriteChrome(w, procs)
}

// metricsDoc is the flat metrics artifact: one entry per run, label-sorted.
type metricsDoc struct {
	Runs []metricsRun `json:"runs"`
}

type metricsRun struct {
	Label   string            `json:"label"`
	Metrics *metrics.Snapshot `json:"metrics"`
}

// WriteMetricsJSON exports every collected run's snapshot as indented,
// deterministic JSON.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	doc := metricsDoc{Runs: []metricsRun{}}
	for _, r := range c.Runs() {
		if r.Metrics == nil {
			continue
		}
		doc.Runs = append(doc.Runs, metricsRun{Label: r.Label, Metrics: r.Metrics})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runPorted executes one ported run under this configuration's collection
// policy: with a collector armed, the run gets a private recorder and
// registry (cloning the machine config so concurrent runs never share
// instrumentation), and its artifacts land in the collector under label.
// Without a collector the config passes through untouched — the exact
// uninstrumented path.
func (c Config) runPorted(label string, pc marvel.PortedConfig) (*marvel.PortedResult, error) {
	if c.Collect != nil {
		mc := cell.DefaultConfig()
		if pc.MachineConfig != nil {
			mc = *pc.MachineConfig
		}
		mc.Tracer = trace.NewRecorder()
		mc.Metrics = metrics.NewRegistry()
		pc.MachineConfig = &mc
	}
	res, err := marvel.RunPorted(pc)
	if err != nil {
		return nil, err
	}
	c.Collect.Add(label, res)
	return res, nil
}
