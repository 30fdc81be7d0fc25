// Package cost provides architectural timing models for the processors in
// the paper's evaluation: the Cell PPE and SPE (3.2 GHz), the "Desktop"
// reference (Pentium D, 3.4 GHz) and the "Laptop" reference (Pentium M
// Centrino, 1.8 GHz).
//
// A Model converts abstract work — operation counts by element width,
// branches, file I/O — into virtual time. The models are deliberately
// first-order: sustained scalar throughput is clock × effective IPC, SIMD
// throughput is clock × (ops issued per cycle at a given width) × an
// efficiency factor supplied by the kernel. Anything the paper measures but
// does not derive (per-kernel SIMD efficiency, per-kernel PPE cache
// behaviour) is calibrated per kernel in the kernel table,
// internal/marvel/table.go, not here.
package cost

import (
	"fmt"
	"math"

	"cellport/internal/sim"
)

// Width is the element width a SIMD operation works on.
type Width int

// Element widths.
const (
	Bits8  Width = 8
	Bits16 Width = 16
	Bits32 Width = 32
	Bits64 Width = 64
)

func (w Width) String() string { return fmt.Sprintf("%d-bit", int(w)) }

// Model is a first-order throughput model of one processor.
type Model struct {
	// Name identifies the processor in reports ("PPE", "SPE", ...).
	Name string
	// ClockHz is the core clock frequency.
	ClockHz float64
	// ScalarIPC is the sustained scalar operations per cycle for the
	// integer/float mix typical of the MARVEL kernels.
	ScalarIPC float64
	// SIMDOpsPerCycle maps element width to peak SIMD operations issued
	// per cycle (both pipelines combined). Nil or missing width means the
	// processor has no usable SIMD path at that width in our model.
	SIMDOpsPerCycle map[Width]float64
	// BranchPenaltyCycles is the cost of one mispredicted branch.
	BranchPenaltyCycles float64
	// DefaultMispredict is the misprediction fraction assumed when the
	// caller does not know better.
	DefaultMispredict float64
	// DiskBandwidth is sustained file-read bandwidth in bytes/second, used
	// for the image-decode / model-load preprocessing steps.
	DiskBandwidth float64
	// DiskLatency is the fixed per-file access cost.
	DiskLatency sim.Duration
	// MemBandwidth is sustained streaming bandwidth to main memory in
	// bytes/second (used for working sets that defeat the cache).
	MemBandwidth float64
}

// CyclesToDuration converts a cycle count to virtual time on this model.
func (m *Model) CyclesToDuration(cycles float64) sim.Duration {
	if cycles <= 0 {
		return 0
	}
	return sim.Duration(math.Round(cycles / m.ClockHz * float64(sim.Second)))
}

// ScalarOps returns the time to execute n scalar operations at the model's
// sustained scalar rate.
func (m *Model) ScalarOps(n float64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return m.CyclesToDuration(n / m.ScalarIPC)
}

// SIMDOps returns the time to execute n element-operations vectorized at
// width w with the given efficiency in (0, 1]. Efficiency folds in shuffle
// overhead, alignment fix-up, and loop epilogues. If the model has no SIMD
// path at w, the work falls back to scalar execution.
func (m *Model) SIMDOps(n float64, w Width, efficiency float64) sim.Duration {
	if n <= 0 {
		return 0
	}
	peak := m.SIMDOpsPerCycle[w]
	if peak <= 0 {
		return m.ScalarOps(n)
	}
	if efficiency <= 0 || efficiency > 1 {
		panic(fmt.Sprintf("cost: SIMD efficiency %v out of (0,1]", efficiency))
	}
	return m.CyclesToDuration(n / (peak * efficiency))
}

// Branches returns the misprediction stall time for n branches. A negative
// mispredict rate selects the model default.
func (m *Model) Branches(n, mispredictRate float64) sim.Duration {
	if n <= 0 {
		return 0
	}
	if mispredictRate < 0 {
		mispredictRate = m.DefaultMispredict
	}
	return m.CyclesToDuration(n * mispredictRate * m.BranchPenaltyCycles)
}

// DiskRead returns the time to read n bytes from storage (one access).
func (m *Model) DiskRead(bytes float64) sim.Duration {
	if bytes < 0 {
		bytes = 0
	}
	return m.DiskLatency + sim.Duration(math.Round(bytes/m.DiskBandwidth*float64(sim.Second)))
}

// MemStream returns the time to stream n bytes from main memory.
func (m *Model) MemStream(bytes float64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(math.Round(bytes / m.MemBandwidth * float64(sim.Second)))
}
