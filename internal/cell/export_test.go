package cell

// emptyPool drops every released machine, returning its memories to the
// pool internal/backing keeps, so the next New builds new parts as a
// build before machine recycling did.
func emptyPool() {
	poolMu.Lock()
	defer poolMu.Unlock()
	for sh, list := range pool {
		for _, p := range list {
			p.release()
		}
		clear(list)
		pool[sh] = list[:0]
	}
}

// pooled counts the released machines in the pool, of every shape.
func pooled() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	n := 0
	for _, list := range pool {
		n += len(list)
	}
	return n
}
