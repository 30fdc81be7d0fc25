package eib

import (
	"fmt"

	"cellport/internal/sim"
)

// flow is a transfer test processes can block on. The bus reports
// completion only through onDone, so flow wraps that callback with a wait
// queue of its own.
type flow struct {
	*Transfer
	q    *sim.Queue
	done bool
}

// start is Bus.Start returning a flow; onDone, if non-nil, runs before
// the flow's waiters wake.
func start(b *Bus, src, dst Port, size int64, onDone func()) *flow {
	f := &flow{q: new(sim.Queue)}
	f.q.Init(fmt.Sprintf("eib %v->%v", src, dst))
	f.Transfer = b.Start(src, dst, size, func() {
		f.done = true
		if onDone != nil {
			onDone()
		}
		f.q.WakeAll(b.engine)
	})
	return f
}

// Wait blocks p until the transfer completes or is aborted.
func (f *flow) Wait(p *sim.Proc) {
	p.WaitFor(f.q, func() bool { return f.done })
}

// Abort aborts the transfer and releases its waiters.
func (f *flow) Abort() {
	f.Transfer.Abort()
	f.done = true
	f.q.WakeAll(f.bus.engine)
}
