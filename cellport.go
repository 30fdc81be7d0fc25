package cellport

import (
	"cellport/internal/amdahl"
	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/cost"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
	"cellport/internal/spe"
	"cellport/internal/trace"
)

// --- machine ------------------------------------------------------------

// Machine is a simulated Cell Broadband Engine.
type Machine = cell.Machine

// Config describes a machine instance (core counts, memory size, bus
// parameters, the PPE cost model, PPE polling period, tracer).
type Config = cell.Config

// PPEContext is the PPE-side execution environment handed to the main
// application.
type PPEContext = cell.Context

// SPEContext is the execution environment handed to an SPE program.
type SPEContext = spe.Context

// Program is a raw SPE executable (use KernelSpec + BuildProgram for the
// dispatcher template).
type Program = spe.Program

// DefaultConfig returns a standard 8-SPE, 256 MB machine with the
// published Cell clock and bandwidth figures.
func DefaultConfig() Config { return cell.DefaultConfig() }

// NewMachine builds a machine from the configuration, reusing the parts
// an earlier Release handed back when parts of the same shape (NumSPEs
// and MemorySize) are free; a reused machine runs exactly as a new one.
// Release is optional, and the machine must not be used after it: its
// methods panic. Each NewMachine returns a new handle, so releasing a
// machine twice is harmless.
func NewMachine(cfg Config) *Machine { return cell.New(cfg) }

// --- porting framework (the paper's contribution) -------------------------

// Opcode selects a kernel function in the dispatcher (Listing 1).
type Opcode = core.Opcode

// OpExit terminates a kernel's idle loop.
const OpExit = core.OpExit

// CompletionMode selects polling or interrupt completion notification.
type CompletionMode = core.CompletionMode

// Completion modes.
const (
	Polling   = core.Polling
	Interrupt = core.Interrupt
)

// KernelFunc is one function of an SPE kernel.
type KernelFunc = core.KernelFunc

// KernelSpec describes an SPE kernel assembled from the Listing-1
// dispatcher template.
type KernelSpec = core.KernelSpec

// Interface is the PPE-side SPEInterface stub (Listings 2–3).
type Interface = core.Interface

// Wrapper is a quadword-aligned main-memory data wrapper (§3.3).
type Wrapper = core.Wrapper

// WrapperField declares one wrapper member.
type WrapperField = core.WrapperField

// Addr is a main-memory effective address.
type Addr = mainmem.Addr

// Open loads a kernel on an SPE and returns its stub (thread_open).
func Open(ctx *PPEContext, speID int, spec KernelSpec) (*Interface, error) {
	return core.Open(ctx, speID, spec)
}

// BuildProgram instantiates the dispatcher template for a kernel spec.
func BuildProgram(spec KernelSpec) (Program, error) { return core.BuildProgram(spec) }

// NewWrapper lays out and allocates an aligned data wrapper.
func NewWrapper(mem *Memory, fields ...WrapperField) (*Wrapper, error) {
	return core.NewWrapper(mem, fields...)
}

// Memory is the simulated main memory.
type Memory = mainmem.Memory

// --- time and cost models -------------------------------------------------

// Time is an absolute virtual timestamp; Duration a span of virtual time.
type (
	Time     = sim.Time
	Duration = sim.Duration
)

// Common virtual durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// CostModel is a first-order processor timing model.
type CostModel = cost.Model

// Processor models from the paper's evaluation.
func NewPPEModel() *CostModel     { return cost.NewPPE() }
func NewSPEModel() *CostModel     { return cost.NewSPE() }
func NewDesktopModel() *CostModel { return cost.NewDesktop() }
func NewLaptopModel() *CostModel  { return cost.NewLaptop() }

// --- performance estimator (§4.2) -----------------------------------------

// EstKernel describes one kernel for the Amdahl estimator.
type EstKernel = amdahl.Kernel

// EstGroup is a set of kernels scheduled in parallel.
type EstGroup = amdahl.Group

// EstimateSpeedUp1 evaluates Eq. 1 for a single kernel.
func EstimateSpeedUp1(k EstKernel) (float64, error) { return amdahl.SpeedUp1(k) }

// EstimateSequential evaluates Eq. 2 for sequentially scheduled kernels.
func EstimateSequential(ks []EstKernel) (float64, error) { return amdahl.SpeedUpSequential(ks) }

// EstimateGrouped evaluates Eq. 3 for grouped-parallel kernel schedules.
func EstimateGrouped(gs []EstGroup) (float64, error) { return amdahl.SpeedUpGrouped(gs) }

// --- tracing ---------------------------------------------------------------

// TraceRecorder accumulates per-core activity spans and renders ASCII
// Gantt charts of the schedule (the Fig. 4 view).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty recorder; install it in Config.Tracer.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
