package control

// Stats returns the event counters.
func (a *Adaptive) Stats() Stats { return a.stats }
