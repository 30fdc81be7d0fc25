package sim

// Semaphore is a counting semaphore in virtual time. Acquire blocks the
// calling process until a unit is available; Release never blocks.
// Fairness is FIFO among blocked processes.
type Semaphore struct {
	engine *Engine
	avail  int
	cap    int
	q      Queue
}

// Init makes s a new semaphore with the given number of units; name
// labels its wait queue for deadlock reports. A semaphore that was in use
// keeps its queue's capacity.
func (s *Semaphore) Init(e *Engine, name string, units int) {
	if units < 0 {
		panic("sim: negative semaphore capacity")
	}
	s.engine, s.avail, s.cap = e, units, units
	s.q.Init(name)
}

// Available reports the number of free units.
func (s *Semaphore) Available() int { return s.avail }

// Acquire takes one unit, blocking in virtual time until one is free.
func (s *Semaphore) Acquire(p *Proc) {
	p.WaitFor(&s.q, func() bool { return s.avail > 0 })
	s.avail--
}

// Release returns one unit and wakes a blocked acquirer, if any.
func (s *Semaphore) Release() {
	if s.avail >= s.cap {
		panic("sim: semaphore released above capacity: " + s.q.name)
	}
	s.avail++
	s.q.WakeOne(s.engine)
}
