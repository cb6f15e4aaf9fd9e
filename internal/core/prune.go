package core

// Candidate pruning for the group-knapsack DP. Only transformations that
// provably leave the packing bit-identical are applied: the DP's strict-">"
// tie-breaks mean even a value-equivalent rewrite can flip a back-pointer,
// so nothing heuristic belongs here.

// pruneCandidates filters the DP input down to candidates that can affect
// the packing. A candidate with no runnable options admits only the "none"
// choice, whose value (0 or survivalWeight, a per-candidate constant) is
// added to every reachable column of its row uniformly; a uniform shift of
// one row changes no later comparison outcome, no argmax column, and no
// back-pointer of any other candidate, so excluding the candidate leaves
// every surviving selection bit-identical. Option-less candidates are never
// placed and the work-conserving admission pass skips them too (it requires
// options), so they need no selection entry at all.
func (s *Scheduler) pruneCandidates(cands []*candidate) []*candidate {
	sc := &s.scratch
	out := sc.dpCands[:0]
	for _, c := range cands {
		if len(c.options) > 0 {
			out = append(out, c)
		}
	}
	sc.dpCands = out
	return out
}
