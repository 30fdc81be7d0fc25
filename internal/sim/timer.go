package sim

// Timer is the handle At and After return for a scheduled callback. It is
// a value: it names the event and the sequence number the event was
// pushed with, so once the event fires (and its struct is recycled for a
// later arming) the handle no longer matches and Cancel does nothing.
type Timer struct {
	engine *Engine
	ev     *event
	seq    uint64
}

// Cancel removes the pending callback. Cancelling a fired or already
// cancelled timer, or the zero Timer, is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.seq == t.seq {
		t.engine.cancel(t.ev)
	}
}
