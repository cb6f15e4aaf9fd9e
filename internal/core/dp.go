package core

// This file implements Algorithm 1's group-knapsack dynamic program: per
// request choose at most one option (one of its planned GPU allocations, or
// none), total width ≤ the free GPU capacity, maximizing the number of
// requests that survive to the next round.
//
// Values are encoded as survivors·survivalWeight + progress so that, among
// packings with equal survivor counts, the DP prefers making progress on
// more requests (the work-conserving tie-break; leftover capacity is later
// recycled by elastic scale-up regardless).
//
// The value rows and the back-pointer table live in the scheduler's scratch
// and are reused across rounds.

const survivalWeight = 1 << 20

// maxOptions bounds a candidate's option count so the int16 back-pointers
// below cannot overflow. A minimal-GPU-hour mix yields at most two options,
// so this is purely defensive.
const maxOptions = 1<<15 - 1

// selection records the DP's decision for one candidate.
type selection struct {
	cand *candidate
	// optIdx indexes cand.options; -1 means "none".
	optIdx int
}

// packDP runs the dynamic program over capacity GPUs and reconstructs the
// chosen options via back-pointers. Runtime O(R·N·|O|), space O(R·N) —
// the tractability claim of §4.2.2. The returned slice is scratch owned by
// the scheduler and is valid until the next Plan call.
func (s *Scheduler) packDP(cands []*candidate, capacity int) []selection {
	if capacity < 0 {
		capacity = 0
	}
	const minusInf = -1 << 40
	sc := &s.scratch
	cols := capacity + 1
	dp := int64Row(sc.dp, cols)
	next := int64Row(sc.next, cols)
	for c := range dp {
		dp[c] = minusInf
	}
	dp[0] = 0
	// choice[i*cols+c] = option index picked for candidate i when the first
	// i+1 candidates consume exactly c GPUs (-1 = none, -2 = unreachable).
	if need := len(cands) * cols; cap(sc.choice) < need {
		sc.choice = make([]int16, need)
	}
	choice := sc.choice[:len(cands)*cols]
	s.dpRows += len(cands)

	for i, cand := range cands {
		if len(cand.options) > maxOptions {
			panic("core: candidate option count overflows DP back-pointers")
		}
		ch := choice[i*cols : (i+1)*cols]
		for c := 0; c <= capacity; c++ {
			// Option "none": width 0.
			v := dp[c]
			ch[c] = -2
			if v > minusInf {
				next[c] = v + noneValue(cand)
				ch[c] = -1
			} else {
				next[c] = minusInf
			}
			for oi, opt := range cand.options {
				w := opt.degree
				if w > c {
					continue
				}
				if dp[c-w] <= minusInf {
					continue
				}
				nv := dp[c-w] + optionValue(opt)
				if nv > next[c] {
					next[c] = nv
					ch[c] = int16(oi)
				}
			}
		}
		dp, next = next, dp
	}
	sc.dp, sc.next = dp, next

	// Pick the best value at the smallest capacity achieving it.
	bestC, bestV := 0, int64(minusInf)
	for c := 0; c <= capacity; c++ {
		if dp[c] > bestV {
			bestV = dp[c]
			bestC = c
		}
	}

	// Reconstruct.
	sels := sc.sels[:0]
	c := bestC
	for i := len(cands) - 1; i >= 0; i-- {
		oi := choice[i*cols+c]
		if oi == -2 {
			// Unreachable cells cannot appear on the optimal path.
			panic("core: DP reconstruction hit unreachable state")
		}
		if oi >= 0 {
			sels = append(sels, selection{cand: cands[i], optIdx: int(oi)})
			c -= cands[i].options[oi].degree
		} else {
			sels = append(sels, selection{cand: cands[i], optIdx: -1})
		}
	}
	// Restore input order (purely cosmetic but deterministic).
	for l, r := 0, len(sels)-1; l < r; l, r = l+1, r-1 {
		sels[l], sels[r] = sels[r], sels[l]
	}
	sc.sels = sels
	return sels
}

func noneValue(c *candidate) int64 {
	if c.surviveNone {
		return survivalWeight
	}
	return 0
}

func optionValue(o option) int64 {
	v := int64(1) // progress tie-break
	if o.survive {
		v += survivalWeight
	}
	return v
}
