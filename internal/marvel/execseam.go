package marvel

import (
	"fmt"

	"cellport/internal/img"
	"cellport/internal/ls"
	"cellport/internal/metrics"
	"cellport/internal/mfc"
	"cellport/internal/trace"
)

// This file is the seam between the simulated port and the
// real-execution backend (internal/exec): the in-kernel slice planning
// and the point and run types the backend's Execute takes and returns.
// The backend also reads the kernel accumulators (NewAccumulator) and the
// scenario schedules (Scenario.Schedule). The backend lives outside this
// package so marvel stays free of host-clock concerns; everything
// exported here is deterministic.

// ExecPlan reproduces, outside the simulator, the exact halo'd slice
// plan the simulated kernel computes for a whole-image OpRun against
// its local store (planKernel). The real-execution backend streams
// bands by this plan so its memory traversal — slice extents, halos,
// double-buffer reuse — matches what the simulator charged for.
func ExecPlan(id KernelID, v Variant, w, h int) ([]img.Slice, error) {
	st := ls.New()
	defer st.Release()
	return planKernel(st, id, v, w, h)
}

// planKernel replays on st, a fresh local store, kernel id's
// dispatch-time planning for a whole-image OpRun over a w×h frame: the
// kernel's program loaded and the wrapper header allocated, then the
// kernel's per-row budget arithmetic (sliceBudget) and planner
// (planRange). It fails exactly when the kernel would fail to plan or to
// DMA a row, and rejects a frame without pixels before any arithmetic.
func planKernel(st *ls.LocalStore, id KernelID, v Variant, w, h int) ([]img.Slice, error) {
	if id == KCD {
		return nil, fmt.Errorf("marvel: %s streams models and has no slice geometry", id)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("marvel: %s: bad geometry %dx%d", id, w, h)
	}
	k := kernelOf(id)
	stride := img.StrideFor(w)
	if stride > mfc.MaxTransfer {
		return nil, fmt.Errorf("marvel: %s row stride %d exceeds one DMA command (frame too wide)", id, stride)
	}
	if err := st.LoadProgram(k.CodeBytes); err != nil {
		return nil, fmt.Errorf("marvel: %s image does not fit: %w", id, err)
	}
	if _, err := st.Alloc(exHdrBytes, 16); err != nil {
		return nil, err
	}
	slices, err := planRange(0, h, h, sliceBudget(st.Free(), id, v, w, stride), k.halo, k.granularity)
	if err != nil {
		return nil, fmt.Errorf("marvel: %s cannot slice a %dx%d frame: %w", id, w, h, err)
	}
	return slices, nil
}

// ExecPoint identifies one real-execution batch: the workload (k images
// of one geometry), the scheduling scenario, and the kernel variant —
// the same triple that configures a simulated dispatch.
type ExecPoint struct {
	Workload Workload
	Scenario Scenario
	Variant  Variant
}

// ExecRun reports one real execution of a point. Every field in the
// wall-clock domain (the measured_ keys) is host-dependent; Images is
// deterministic (and bit-exact against the host references at any
// worker count). Trace and Metrics mirror
// PortedResult's instrumentation fields and are excluded from JSON for
// the same fingerprint-neutrality reason — but note their clock domain:
// exec trace timestamps are wall nanoseconds, never virtual time.
type ExecRun struct {
	// Workers is how many lanes could compute at once; Reps is how many
	// times the batch was run (WallNS keeps the fastest).
	Workers int `json:"measured_workers"`
	Reps    int `json:"measured_reps"`
	// WallNS is the best-of-reps wall-clock time for the batch in host
	// nanoseconds.
	WallNS int64 `json:"measured_wall_ns"`
	// Images holds the outputs computed by the real kernels.
	Images []ImageResult `json:"-"`
	// Trace holds wall-clock spans when the backend instruments
	// (exec/* tracks; see DESIGN.md §14).
	Trace *trace.Recorder `json:"-"`
	// Metrics is the backend's snapshot (all keys under the "exec"
	// component) when instrumenting.
	Metrics *metrics.Snapshot `json:"-"`
}
