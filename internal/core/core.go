// Package core implements the paper's porting framework — its primary
// contribution (§3):
//
//   - KernelSpec / BuildProgram: the SPE-side function-dispatcher template
//     of Listing 1 — an idle loop reading opcodes from the inbound mailbox,
//     invoking the selected kernel function with a main-memory wrapper
//     address, and reporting the result through the polled or interrupting
//     outbound mailbox.
//   - Interface: the PPE-side SPEInterface stub of Listings 2–3, with
//     Send / Wait / SendAndWait / Close and the 2-way mailbox protocol
//     (command word, address word, result word). Kernels are statically
//     scheduled: the SPE thread is started once and kept in an idle state
//     between invocations, avoiding thread create/destroy costs (§3.3).
//   - Wrapper: the aligned data-wrapper structure (the
//     FILL_MSG_FROM_COLORIMAGE analog) that collects the class members a
//     kernel needs into one DMA-able block with quadword-aligned fields.
//
// Because every kernel version adheres to the same Interface, optimized
// kernel variants plug in without touching the main application — the
// modularity argument of §4.1.
package core

import (
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
	"cellport/internal/spe"
)

// Opcode selects a kernel function in the dispatcher.
type Opcode uint32

// Reserved opcodes.
const (
	// OpExit terminates the kernel's idle loop (SPU_EXIT in Listing 1).
	OpExit Opcode = 0xFFFFFFFF
	// ResultUnknownOpcode is written back when the dispatcher receives an
	// opcode with no registered function.
	ResultUnknownOpcode uint32 = 0xFFFFFFFE
	// ResultDMAFault is written back when a transfer error (corrupted DMA
	// delivery) was detected during the invocation; the invocation is
	// retryable — its inputs in main memory are intact.
	ResultDMAFault uint32 = 0xFFFFFFFD
)

// CompletionMode selects how the kernel reports completion (Listing 1
// supports both).
type CompletionMode int

// Completion modes.
const (
	// Polling: the kernel writes the ordinary outbound mailbox and the PPE
	// spins on spe_stat_out_mbox (Listing 3).
	Polling CompletionMode = iota
	// Interrupt: the kernel writes the interrupting outbound mailbox and
	// the PPE blocks until notified.
	Interrupt
)

func (m CompletionMode) String() string {
	if m == Interrupt {
		return "interrupt"
	}
	return "polling"
}

// dispatchCycles is the dispatcher's SPU overhead per invocation: the
// two inbound mailbox reads, the opcode switch and the result write.
const dispatchCycles = 60

// KernelFunc is one function of an SPE kernel. It receives the SPE
// execution context and the main-memory address of the kernel's data
// wrapper, and returns the 32-bit result word for the mailbox.
type KernelFunc func(ctx *spe.Context, wrapper mainmem.Addr) uint32

// KernelSpec describes an SPE kernel assembled from the dispatcher
// template.
type KernelSpec struct {
	// Name labels the kernel in traces and errors.
	Name string
	// CodeBytes is the program-image footprint in the local store.
	CodeBytes uint32
	// Functions maps opcodes to kernel functions.
	Functions map[Opcode]KernelFunc
	// Mode selects polling or interrupt completion.
	Mode CompletionMode
}

// BuildProgram instantiates the Listing-1 dispatcher for the spec.
func BuildProgram(spec KernelSpec) (spe.Program, error) {
	if len(spec.Functions) == 0 {
		return spe.Program{}, fmt.Errorf("core: kernel %q has no functions", spec.Name)
	}
	if spec.CodeBytes == 0 {
		return spe.Program{}, fmt.Errorf("core: kernel %q has zero code size", spec.Name)
	}
	for op := range spec.Functions {
		if op == OpExit {
			return spe.Program{}, fmt.Errorf("core: kernel %q registers reserved opcode OpExit", spec.Name)
		}
	}
	return spe.Program{
		Name:      spec.Name,
		CodeBytes: spec.CodeBytes,
		Main: func(ctx *spe.Context) {
			for {
				op := Opcode(ctx.ReadInMbox())
				if op == OpExit {
					return
				}
				addr := mainmem.Addr(ctx.ReadInMbox())
				ctx.ComputeCycles(dispatchCycles, "dispatch")
				var result uint32
				if fn, ok := spec.Functions[op]; ok {
					// Each invocation starts from a clean data region, as a
					// real kernel's static buffers would be reused.
					ctx.Store().Reset()
					ctx.ClearDMAError()
					result = fn(ctx, addr)
					if ctx.DMAError() {
						result = ResultDMAFault
					}
				} else {
					result = ResultUnknownOpcode
				}
				switch spec.Mode {
				case Interrupt:
					ctx.WriteOutIntrMbox(result)
				default:
					ctx.WriteOutMbox(result)
				}
			}
		},
	}, nil
}

// Interface is the PPE-side stub managing one SPE kernel (the
// SPEInterface class, Listing 2).
type Interface struct {
	ctx      *cell.Context
	speID    int
	spec     KernelSpec
	open     bool
	inFlight bool
}

// Open loads the kernel on the given SPE and returns the stub
// (thread_open). The SPE enters its idle loop immediately.
func Open(ctx *cell.Context, speID int, spec KernelSpec) (*Interface, error) {
	prog, err := BuildProgram(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.LoadSPE(speID, prog); err != nil {
		return nil, fmt.Errorf("core: opening kernel %q: %w", spec.Name, err)
	}
	return &Interface{ctx: ctx, speID: speID, spec: spec, open: true}, nil
}

// Name returns the kernel name.
func (i *Interface) Name() string { return i.spec.Name }

// Spec returns the kernel spec (so a supervisor can reopen the kernel on
// another SPE).
func (i *Interface) Spec() KernelSpec { return i.spec }

// Abandon marks the interface closed without the OpExit handshake, for
// SPEs that have crashed and can no longer answer mailbox traffic.
func (i *Interface) Abandon() {
	i.open = false
	i.inFlight = false
}

// SPE returns the SPE index the kernel is scheduled on.
func (i *Interface) SPE() int { return i.speID }

// Send issues a kernel invocation without waiting: it writes the opcode
// and the wrapper address to the SPE's inbound mailbox. Exactly one
// invocation may be in flight per Interface.
func (i *Interface) Send(op Opcode, wrapper mainmem.Addr) error {
	if !i.open {
		return fmt.Errorf("core: %s: Send on closed interface", i.spec.Name)
	}
	if i.inFlight {
		return fmt.Errorf("core: %s: Send while an invocation is in flight", i.spec.Name)
	}
	if op == OpExit {
		return fmt.Errorf("core: %s: OpExit must be sent via Close", i.spec.Name)
	}
	i.ctx.WriteInMbox(i.speID, uint32(op))
	i.ctx.WriteInMbox(i.speID, uint32(wrapper))
	i.inFlight = true
	return nil
}

// Wait blocks until the in-flight invocation completes and returns the
// kernel's result word.
func (i *Interface) Wait() (uint32, error) {
	if !i.inFlight {
		return 0, fmt.Errorf("core: %s: Wait with no invocation in flight", i.spec.Name)
	}
	var result uint32
	if i.spec.Mode == Interrupt {
		result = i.ctx.WaitOutIntrMbox(i.speID)
	} else {
		result = i.ctx.PollOutMbox(i.speID)
	}
	i.inFlight = false
	if result == ResultUnknownOpcode {
		return result, fmt.Errorf("core: %s: kernel reported unknown opcode", i.spec.Name)
	}
	return result, nil
}

// SendAndWait is the Listing-3 protocol: command, address, then block for
// the result.
func (i *Interface) SendAndWait(op Opcode, wrapper mainmem.Addr) (uint32, error) {
	if err := i.Send(op, wrapper); err != nil {
		return 0, err
	}
	return i.Wait()
}

// Close sends OpExit and waits for the SPE program to return
// (thread_close). The SPE becomes free for another kernel.
func (i *Interface) Close() error {
	if !i.open {
		return nil
	}
	if i.inFlight {
		if _, err := i.Wait(); err != nil {
			return fmt.Errorf("core: %s: draining before close: %w", i.spec.Name, err)
		}
	}
	i.ctx.WriteInMbox(i.speID, uint32(OpExit))
	i.ctx.WaitSPE(i.speID)
	i.open = false
	return nil
}

// WaitTimeout is Listing 2's `int Wait(int timeout)`: it blocks up to d of
// virtual time for the in-flight invocation. On timeout it returns
// ok=false and the invocation STAYS in flight — a later Wait or
// WaitTimeout can still collect it.
func (i *Interface) WaitTimeout(d sim.Duration) (result uint32, ok bool, err error) {
	if !i.inFlight {
		return 0, false, fmt.Errorf("core: %s: WaitTimeout with no invocation in flight", i.spec.Name)
	}
	if i.spec.Mode == Interrupt {
		result, ok = i.ctx.WaitOutIntrMboxTimeout(i.speID, d)
	} else {
		result, ok = i.ctx.PollOutMboxTimeout(i.speID, d)
	}
	if !ok {
		return 0, false, nil
	}
	i.inFlight = false
	if result == ResultUnknownOpcode {
		return result, true, fmt.Errorf("core: %s: kernel reported unknown opcode", i.spec.Name)
	}
	return result, true, nil
}
