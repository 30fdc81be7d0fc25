package marvel

import (
	"errors"
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/fault"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
	"cellport/internal/spe"
)

// Supervision parameters (used only when fault injection is armed; a
// fault-free run never consults them).
const (
	// DefaultWatchdog bounds how long the PPE waits for a kernel result
	// before declaring the SPE dead.
	DefaultWatchdog = 50 * sim.Millisecond
	// RetryBackoff is the base delay before re-dispatching a failed
	// invocation; attempt k (1-based) waits BackoffDelay(RetryBackoff, k).
	RetryBackoff = 100 * sim.Microsecond
	// MaxRetries bounds same-invocation retries for retryable result codes.
	MaxRetries = 3
	// maxBackoffShift caps the exponential backoff doubling: beyond 16
	// doublings the delay saturates (100 µs << 16 ≈ 6.5 s of virtual
	// time). Uncapped, a misconfigured retry bound past attempt 63 would
	// shift the base out of sim.Duration's int64 range entirely, producing
	// zero or negative sleeps.
	maxBackoffShift = 16
)

// BackoffDelay returns the delay before retry number attempt (1-based:
// the first retry waits the base delay). Attempts below 1 are treated as
// the first retry, and the doubling saturates at maxBackoffShift so the
// delay can never overflow sim.Duration. It is the one backoff law: the
// supervision loop's kernel retries and the serving fleet's re-routes of
// evicted requests both wait by it.
func BackoffDelay(base sim.Duration, attempt int) sim.Duration {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return base << shift
}

// fallbackFunc executes one kernel invocation on the PPE against the
// wrapper in main memory — the graceful-degradation path when no healthy
// SPE remains. It must produce bit-identical outputs to the SPE kernel.
type fallbackFunc func(wrapper mainmem.Addr) uint32

// supervisor owns the self-healing runtime state of one ported run:
// which SPEs are occupied, which have been lost, and the recovery
// counters surfaced through the fault report.
type supervisor struct {
	ctx      *cell.Context
	inj      *fault.Injector
	rep      *fault.Report // inj's report; nil exactly when inj is
	watchdog sim.Duration
	// used marks SPEs occupied by a kernel (or dead); rehoming scans for
	// the first free healthy SPE, so spare SPEs form a redispatch pool.
	used []bool
	lost map[int]bool
}

// newSupervisor builds the runtime. inj may be nil: then every kern takes
// the unsupervised fast path and the run is byte-identical to one without
// a supervisor.
func newSupervisor(ctx *cell.Context, inj *fault.Injector, watchdog sim.Duration) *supervisor {
	if watchdog <= 0 {
		watchdog = DefaultWatchdog
	}
	s := &supervisor{
		ctx:      ctx,
		inj:      inj,
		watchdog: watchdog,
		used:     make([]bool, ctx.Machine().Config().NumSPEs),
		lost:     map[int]bool{},
	}
	if inj != nil {
		s.rep = inj.Report()
	}
	return s
}

func (s *supervisor) speFailed(i int) bool { return s.ctx.Machine().SPE(i).Failed() }

// reserve marks SPEs claimed by the placement plan before any kernel is
// opened, so a crash discovered during placement cannot rehome an early
// kernel onto an SPE a later kernel is about to be loaded on. Only SPEs
// outside the reserved set form the redispatch pool.
func (s *supervisor) reserve(ids ...int) {
	for _, i := range ids {
		if i >= 0 && i < len(s.used) {
			s.used[i] = true
		}
	}
}

// failSPE declares SPE i dead: the running program is killed and its DMA
// aborted, so a hung invocation cannot later complete and double-deliver.
func (s *supervisor) failSPE(i int, reason string) {
	if sp := s.ctx.Machine().SPE(i); !sp.Failed() {
		sp.Fail(reason)
	}
	s.noteLost(i)
}

func (s *supervisor) noteLost(i int) {
	if s.lost[i] {
		return
	}
	s.lost[i] = true
	s.rep.SPEsLost = append(s.rep.SPEsLost, i)
}

// kern is a supervised kernel endpoint: a core.Interface plus the state
// needed to retry, re-dispatch to a surviving SPE, or degrade to PPE
// execution. With a nil injector every method delegates straight to the
// interface, leaving the fault-free event stream untouched.
type kern struct {
	sup      *supervisor
	spec     core.KernelSpec
	iface    *core.Interface // nil once no SPE hosts the kernel
	fallback fallbackFunc
	ppeOnly  bool // no healthy SPE remains: run invocations on the PPE

	// In-flight invocation state (supervised mode only).
	op       core.Opcode
	addr     mainmem.Addr
	attempts int
	pending  bool
	done     bool // completed via PPE fallback; code holds the result
	code     uint32
}

// open loads a kernel on its planned SPE under supervision. If the SPE
// has already crashed, the kernel is rehomed immediately (or marked
// PPE-only when no spare remains).
func (s *supervisor) open(speID int, spec core.KernelSpec, fb fallbackFunc) (*kern, error) {
	k := &kern{sup: s, spec: spec, fallback: fb}
	iface, err := core.Open(s.ctx, speID, spec)
	if err != nil {
		if s.inj != nil && errors.Is(err, spe.ErrSPECrashed) {
			s.used[speID] = true // dead slot stays occupied
			s.noteLost(speID)
			if err := k.rehome(); err != nil {
				return nil, err
			}
			return k, nil
		}
		return nil, err
	}
	s.used[speID] = true
	k.iface = iface
	return k, nil
}

// Name returns the kernel name.
func (k *kern) Name() string { return k.spec.Name }

// rehome moves the kernel to the first free healthy SPE; with none left
// it degrades the kernel to PPE-only execution.
func (k *kern) rehome() error {
	s := k.sup
	for i := range s.used {
		if s.used[i] || s.speFailed(i) {
			continue
		}
		iface, err := core.Open(s.ctx, i, k.spec)
		if err != nil {
			if errors.Is(err, spe.ErrSPECrashed) {
				s.used[i] = true
				s.noteLost(i)
				continue
			}
			return err
		}
		s.used[i] = true
		k.iface = iface
		s.rep.Redispatches++
		return nil
	}
	k.iface = nil
	k.ppeOnly = true
	return nil
}

// dispatch issues the stored invocation to a healthy SPE, rehoming or
// falling back as needed.
func (k *kern) dispatch() error {
	for {
		if k.iface == nil && !k.ppeOnly {
			if err := k.rehome(); err != nil {
				return err
			}
		}
		if k.iface == nil {
			k.runFallback()
			return nil
		}
		if k.sup.speFailed(k.iface.SPE()) {
			k.sup.noteLost(k.iface.SPE())
			k.iface.Abandon()
			k.iface = nil
			continue
		}
		return k.iface.Send(k.op, k.addr)
	}
}

// runFallback executes the invocation on the PPE (graceful degradation),
// charging the time to the degraded-mode accounting.
func (k *kern) runFallback() {
	s := k.sup
	s.rep.Fallbacks++
	start := s.ctx.Now()
	k.code = k.fallback(k.addr)
	s.rep.DegradedTime += s.ctx.Now().Sub(start)
	k.done = true
}

// Send issues a kernel invocation without waiting (Interface.Send analog).
func (k *kern) Send(op core.Opcode, addr mainmem.Addr) error {
	if k.sup.inj == nil {
		return k.iface.Send(op, addr)
	}
	if k.pending {
		return fmt.Errorf("marvel: %s: Send while an invocation is in flight", k.spec.Name)
	}
	k.op, k.addr = op, addr
	k.attempts = 0
	k.pending = true
	k.done = false
	return k.dispatch()
}

// Wait collects the in-flight invocation's result under the supervision
// loop: watchdog timeouts kill the hosting SPE and re-dispatch, retryable
// result codes (kernel resource errors, DMA faults) retry with
// exponential backoff, and exhausted options degrade to the PPE.
func (k *kern) Wait() (uint32, error) {
	if k.sup.inj == nil {
		return k.iface.Wait()
	}
	if !k.pending {
		return 0, fmt.Errorf("marvel: %s: Wait with no invocation in flight", k.spec.Name)
	}
	s := k.sup
	for {
		if k.done {
			k.pending = false
			k.done = false
			return k.code, nil
		}
		result, ok, err := k.iface.WaitTimeout(s.watchdog)
		if err != nil {
			return result, err
		}
		if !ok {
			// Watchdog expired: the SPE is hung (crashed mid-invocation or
			// lost a DMA). Kill it first — a killed SPE can never deliver a
			// duplicate result after the invocation is re-dispatched.
			s.rep.WatchdogTimeouts++
			s.failSPE(k.iface.SPE(), "watchdog timeout")
			k.iface.Abandon()
			k.iface = nil
			if err := k.dispatch(); err != nil {
				return 0, err
			}
			continue
		}
		if result == resErr || result == core.ResultDMAFault {
			if k.attempts >= MaxRetries {
				k.pending = false
				return result, nil
			}
			k.attempts++
			s.rep.Retries++
			d := BackoffDelay(RetryBackoff, k.attempts)
			s.rep.BackoffTime += d
			s.ctx.Sleep(d)
			if err := k.dispatch(); err != nil {
				return 0, err
			}
			continue
		}
		k.pending = false
		return result, nil
	}
}

// SendAndWait is the supervised Listing-3 protocol.
func (k *kern) SendAndWait(op core.Opcode, addr mainmem.Addr) (uint32, error) {
	if err := k.Send(op, addr); err != nil {
		return 0, err
	}
	return k.Wait()
}

// Close tears the kernel down: drains any in-flight invocation, then
// sends OpExit — unless the hosting SPE is dead (or the kernel is
// PPE-only), in which case there is nothing to hand-shake with.
func (k *kern) Close() error {
	if k.sup.inj == nil {
		return k.iface.Close()
	}
	if k.pending {
		if _, err := k.Wait(); err != nil {
			return err
		}
	}
	if k.iface == nil {
		return nil
	}
	if k.sup.speFailed(k.iface.SPE()) {
		k.iface.Abandon()
		return nil
	}
	return k.iface.Close()
}
