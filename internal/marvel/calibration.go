package marvel

import (
	"cellport/internal/cost"
	"cellport/internal/features"
)

// Calibration constants.
//
// Everything the paper MEASURES but does not derive lives here, each
// constant tied to the published number it targets. Structural behaviour
// (DMA time, slice counts, mailbox round trips, schedule overlap) is
// computed by the simulator; these constants set per-kernel effective
// throughput.
//
// Targets:
//
//	§5.2  per-image coverage on the PPE: CH 8%, CC 54%, TX 6%, EH 28%,
//	      ConceptDet 2%, image read/decode 2%.
//	Table 1 optimized SPE-vs-PPE speed-ups: 53.67 / 52.23 / 15.99 /
//	      65.94 / 10.80.
//	§5.3  pre-optimization (naive port) speed-ups: CH 26.41, CC 0.43,
//	      EH 3.85 (TX and ConceptDet were not measured before
//	      optimization; plausible values are assigned and marked).
//
// Derivation sketch: the features package defines nominal per-pixel
// operation counts for the *integer* algorithm each kernel uses after
// porting. The original C++ runs costlier code on the hosts —
// floating-point HSV conversion (CH), float atan2 per pixel (EH), cache
// misses on the window walk (CC), pointer-heavy model evaluation (CD) —
// captured as HostOpsMult, chosen so the PPE per-kernel times land on the
// §5.2 coverage split. Host machines then differ only through their
// sustained scalar throughput, which reproduces the 2.5×/3.2× host
// ratios automatically.
//
// The optimized SPE variant runs the nominal ops SIMDized at OptWidth
// with efficiency OptEff; eff values are solved from Table 1
// (cycles/px = nominalOps / (peakOpsPerCycle × eff)). The naive variant
// models the first functional port: single-buffered DMA, mostly scalar
// code with static-prediction branch stalls, NaiveEff likewise solved
// from §5.3.

// kernelCal is the per-kernel calibration record.
type kernelCal struct {
	// NomOpsPerPixel / NomBranchesPerPixel: the ported integer algorithm
	// (from the features package; detection uses per-SV counts instead).
	NomOpsPerPixel      float64
	NomBranchesPerPixel float64
	// HostOpsMult scales nominal ops to the original C++ implementation's
	// cost on scalar hosts (PPE, Desktop, Laptop).
	HostOpsMult float64
	// Optimized SPE variant: SIMD width and efficiency.
	OptWidth cost.Width
	OptEff   float64
	// Naive SPE variant: if NaiveSIMD, the first port already vectorized
	// (compiler-friendly inner loop); otherwise scalar. NaiveEff applies
	// to the respective peak (SIMD lane rate or scalar IPC).
	NaiveSIMD  bool
	NaiveWidth cost.Width
	NaiveEff   float64
	// CodeBytes is the kernel's program-image footprint in the LS.
	CodeBytes uint32
	// SliceOverheadCycles is fixed SPU work per processed slice (loop
	// setup, address arithmetic, bookkeeping).
	SliceOverheadCycles float64
}

// calibration holds each kernel's record, indexed by KernelID (KCD
// included).
var calibration = [numKernels]kernelCal{
	KCH: {
		NomOpsPerPixel:      features.HistOpsPerPixel,      // 38
		NomBranchesPerPixel: features.HistBranchesPerPixel, // 7
		// PPE time target 4.92 ms/image (8% of 61.5 ms): float HSV
		// conversion with divisions in the original code.
		HostOpsMult: 2.45,
		// Table 1: 53.67×, on 16-bit lanes.
		OptWidth: cost.Bits16,
		OptEff:   0.74,
		// §5.3: 26.41× already before optimization — the histogram inner
		// loop auto-vectorized in the first port (it is a pure per-pixel
		// map), it just lacked multibuffering and unrolling.
		NaiveSIMD:           true,
		NaiveWidth:          cost.Bits16,
		NaiveEff:            0.34,
		CodeBytes:           24 * 1024,
		SliceOverheadCycles: 300,
	},
	KCC: {
		NomOpsPerPixel:      features.CorrOpsPerPixel,      // 616
		NomBranchesPerPixel: features.CorrBranchesPerPixel, // 24
		// CC is the calibration anchor: HostOpsMult 1.0 ⇒ 33.2 ms on the
		// PPE = 54% of the per-image budget.
		HostOpsMult: 1.0,
		// Table 1: 52.23×, on byte lanes (the window compare-and-count is
		// ideal 16-way byte SIMD).
		OptWidth: cost.Bits8,
		OptEff:   0.81,
		// §5.3: 0.43× — the straight C port ran *slower* than the PPE:
		// scalar compares on a branchy window walk with 18-cycle static
		// mispredictions.
		NaiveSIMD:           false,
		NaiveEff:            0.62,
		CodeBytes:           48 * 1024,
		SliceOverheadCycles: 400,
	},
	KTX: {
		NomOpsPerPixel:      features.TexOpsPerPixel,      // 18
		NomBranchesPerPixel: features.TexBranchesPerPixel, // 4
		// PPE target 3.69 ms (6%): float wavelet filters in the original.
		HostOpsMult: 3.9,
		// Table 1: 15.99×, on 32-bit lanes (strided column passes defeat
		// wide SIMD — the paper's weakest kernel).
		OptWidth: cost.Bits32,
		OptEff:   0.254,
		// Not measured in §5.3; assigned: scalar port, moderate branches.
		NaiveSIMD:           false,
		NaiveEff:            0.70,
		CodeBytes:           40 * 1024,
		SliceOverheadCycles: 350,
	},
	KEH: {
		NomOpsPerPixel:      features.EdgeOpsPerPixel,      // 39
		NomBranchesPerPixel: features.EdgeBranchesPerPixel, // 9
		// PPE target 17.2 ms (28%): the original computes a float atan2
		// and sqrt per pixel.
		HostOpsMult: 8.3,
		// Table 1: 65.94× ⇒ ~9.9 cycles/px ⇒ 16-bit lanes at eff 0.25
		// (the big win is dropping atan2 for octant compares).
		OptWidth: cost.Bits16,
		OptEff:   0.25,
		// §5.3: 3.85× — scalar port already beat the PPE because the
		// integer rewrite removed atan2.
		NaiveSIMD:           false,
		NaiveEff:            0.84,
		CodeBytes:           36 * 1024,
		SliceOverheadCycles: 300,
	},
	KCD: {
		// Detection cost is per support vector: 3*dim+25 nominal ops
		// (see svm.Model.DetectOps); per-pixel fields unused.
		HostOpsMult: 7.2, // PPE target 1.23 ms (2%): virtual calls + exp()
		// Table 1: 10.80× ⇒ fp32 4-wide at low efficiency (dot products
		// short, exp scalar).
		OptWidth: cost.Bits32,
		OptEff:   0.104,
		// Not measured in §5.3; assigned: scalar float port.
		NaiveSIMD:           false,
		NaiveEff:            0.55,
		CodeBytes:           32 * 1024,
		SliceOverheadCycles: 500,
	},
}

// NaiveMispredict is the misprediction rate charged to naive kernels
// (static prediction on data-dependent branches).
const NaiveMispredict = 0.30

// detectNomOps returns nominal operations for evaluating a model with n
// support vectors of dimension dim (mirrors svm.Model.DetectOps).
func detectNomOps(n, dim int) float64 { return float64(n) * (3*float64(dim) + 25) }

// detectNomOpsAll is the per-image nominal detection work for the §5.5
// model library.
func detectNomOpsAll() float64 {
	var total float64
	for _, id := range ExtractKernels {
		k := kernelOf(id)
		total += detectNomOps(k.numSV, k.dim)
	}
	return total
}
