package core

// groupCaps returns the capacities of the thread groups in the bin that
// threads with these hints fall into, in chain order (nil if no such bin).
func (s *Scheduler) groupCaps(hint1, hint2, hint3 uint64) []int {
	key := binKey{hint1 >> s.blockShift, hint2 >> s.blockShift, hint3 >> s.blockShift}
	if s.cfg.FoldSymmetric {
		sortKey(&key)
	}
	for b := s.table[s.cellIndex(key)]; b != nil; b = b.hashNext {
		if b.key != key {
			continue
		}
		var caps []int
		for g := b.groups; g != nil; g = g.next {
			caps = append(caps, cap(g.recs))
		}
		return caps
	}
	return nil
}
