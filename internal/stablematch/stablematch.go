// Package stablematch implements the Gale–Shapley stable matchings TinyLEO's
// orbital MPC uses to compile geographic topology intents into satellite
// topologies (paper §4.2): a many-to-one matching assigns each cell's
// satellites to neighbor cells as gateways, and a one-to-one matching pairs
// the gateways of adjacent cells into concrete ISLs. Preferences are
// expected ISL lifetimes, so the resulting topology maximizes stability.
package stablematch

import (
	"cmp"
	"slices"
)

// Matcher runs the package's matchings in buffers it keeps: a caller that
// matches many instances in a row (the MPC: one per cell and one per intent
// edge, every slot) allocates nothing once the buffers fit its largest
// instance. Every slice a method returns is the Matcher's own: preference
// lists are valid until the next PrefsFromWeights, rank vectors until the
// next RanksFromPrefs, a matching until the next matching. The zero value
// is ready to use; a Matcher is not safe for concurrent use.
type Matcher struct {
	prefs, ranks, held        [][]int // rows share the buffer below them
	prefBuf, rankBuf, heldBuf []int
	match, next, free, ones   []int
}

// ints returns *buf resized to n elements, each set to v.
func ints(buf *[]int, n, v int) []int {
	s := slices.Grow((*buf)[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	*buf = s
	return s
}

// PrefsFromWeights converts a weight matrix (higher = more preferred) into
// ordered preference lists: prefs[i] lists the candidate indices j sorted
// by w[i][j] descending. Candidates with weight ≤ cutoff are omitted
// (unacceptable partners). Ties break toward the lower index so matchings
// are deterministic.
func (m *Matcher) PrefsFromWeights(w [][]float64, cutoff float64) [][]int {
	total := 0
	for _, row := range w {
		total += len(row)
	}
	// Grown to every candidate up front, so the appends below never move
	// the rows already cut from the buffer.
	buf := slices.Grow(m.prefBuf[:0], total)
	m.prefs = m.prefs[:0]
	for _, row := range w {
		start := len(buf)
		for j, v := range row {
			if v > cutoff {
				buf = append(buf, j)
			}
		}
		list := buf[start:len(buf):len(buf)]
		slices.SortFunc(list, func(a, b int) int {
			return cmp.Or(cmp.Compare(row[b], row[a]), cmp.Compare(a, b))
		})
		m.prefs = append(m.prefs, list)
	}
	m.prefBuf = buf
	return m.prefs
}

// RanksFromPrefs inverts preference lists into rank vectors usable as
// reviewerRank: rank[j][i] is j's position of i (0 = favourite), or -1 if
// absent. n is the number of counterparties.
func (m *Matcher) RanksFromPrefs(prefs [][]int, n int) [][]int {
	buf := ints(&m.rankBuf, len(prefs)*n, -1)
	m.ranks = m.ranks[:0]
	for j, list := range prefs {
		row := buf[j*n : (j+1)*n : (j+1)*n]
		for pos, i := range list {
			if i >= 0 && i < n {
				row[i] = pos
			}
		}
		m.ranks = append(m.ranks, row)
	}
	return m.ranks
}

// OneToOne computes a stable marriage between proposers (indices into
// proposerPrefs) and reviewers. proposerPrefs[i] is proposer i's ordered
// list of acceptable reviewers; reviewerRank[j][i] is reviewer j's rank of
// proposer i (lower = preferred; a missing/negative rank marks i
// unacceptable to j). Returns match[i] = reviewer of proposer i, or -1.
//
// It is ManyToOne with room for one proposer per reviewer: the classic
// deferred-acceptance run, proposer-optimal and without a blocking pair
// among mutually acceptable pairs.
func (m *Matcher) OneToOne(proposerPrefs [][]int, reviewerRank [][]int) []int {
	match, _ := m.ManyToOne(proposerPrefs, reviewerRank, ints(&m.ones, len(reviewerRank), 1))
	return match
}

func rankOf(ranks []int, i int) int {
	if i < 0 || i >= len(ranks) {
		return -1
	}
	return ranks[i]
}

// ManyToOne computes a hospitals/residents-style stable matching:
// proposers (satellites) each match at most one slot, reviewers (neighbor
// cells) accept up to capacity[j] proposers. Returns match[i] = reviewer of
// proposer i or -1, and assigned[j] = proposers held by reviewer j.
func (m *Matcher) ManyToOne(proposerPrefs [][]int, reviewerRank [][]int, capacity []int) (match []int, assigned [][]int) {
	nP, nR := len(proposerPrefs), len(reviewerRank)
	match = ints(&m.match, nP, -1)
	next := ints(&m.next, nP, 0)
	// Reviewer j holds at most min(capacity[j], nP) proposers: its row of
	// the shared buffer is cut to that, and filled by append.
	room := func(j int) int { return min(max(capacity[j], 0), nP) }
	total := 0
	for j := 0; j < nR; j++ {
		total += room(j)
	}
	buf := slices.Grow(m.heldBuf[:0], total)[:total]
	held := m.held[:0]
	for j, off := 0, 0; j < nR; j++ {
		held = append(held, buf[off:off:off+room(j)])
		off += room(j)
	}
	m.heldBuf, m.held = buf, held
	free := m.free[:0]
	for i := nP - 1; i >= 0; i-- {
		free = append(free, i) // pop order = ascending index, deterministic
	}
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for next[i] < len(proposerPrefs[i]) {
			j := proposerPrefs[i][next[i]]
			next[i]++
			if j < 0 || j >= nR || capacity[j] <= 0 {
				continue
			}
			rank := rankOf(reviewerRank[j], i)
			if rank < 0 {
				continue
			}
			if len(held[j]) < capacity[j] {
				held[j] = append(held[j], i)
				match[i] = j
				break
			}
			// Find the worst currently held proposer.
			worstIdx, worstRank := -1, -1
			for k, p := range held[j] {
				if r := rankOf(reviewerRank[j], p); r > worstRank {
					worstIdx, worstRank = k, r
				}
			}
			if worstRank > rank {
				displaced := held[j][worstIdx]
				held[j][worstIdx] = i
				match[i] = j
				match[displaced] = -1
				free = append(free, displaced)
				break
			}
		}
	}
	m.free = free
	for j := range held {
		slices.Sort(held[j])
	}
	return match, held
}

// PrefsFromWeights is Matcher.PrefsFromWeights on a fresh Matcher: the
// result is the caller's.
func PrefsFromWeights(w [][]float64, cutoff float64) [][]int {
	return new(Matcher).PrefsFromWeights(w, cutoff)
}

// RanksFromPrefs is Matcher.RanksFromPrefs on a fresh Matcher.
func RanksFromPrefs(prefs [][]int, n int) [][]int {
	return new(Matcher).RanksFromPrefs(prefs, n)
}

// OneToOne is Matcher.OneToOne on a fresh Matcher.
func OneToOne(proposerPrefs [][]int, reviewerRank [][]int) []int {
	return new(Matcher).OneToOne(proposerPrefs, reviewerRank)
}

// ManyToOne is Matcher.ManyToOne on a fresh Matcher.
func ManyToOne(proposerPrefs [][]int, reviewerRank [][]int, capacity []int) (match []int, assigned [][]int) {
	return new(Matcher).ManyToOne(proposerPrefs, reviewerRank, capacity)
}

// IsStableOneToOne verifies the no-blocking-pair property for a one-to-one
// matching, given both sides' rank matrices (−1 = unacceptable). Exposed
// for property tests.
func IsStableOneToOne(match []int, proposerRank, reviewerRank [][]int) bool {
	// reverse map
	nR := len(reviewerRank)
	rmatch := make([]int, nR)
	for j := range rmatch {
		rmatch[j] = -1
	}
	for i, j := range match {
		if j >= 0 {
			rmatch[j] = i
		}
	}
	for i := range proposerRank {
		for j := 0; j < nR; j++ {
			pr := rankOf(proposerRank[i], j)
			rr := rankOf(reviewerRank[j], i)
			if pr < 0 || rr < 0 {
				continue // not mutually acceptable
			}
			iPrefersJ := match[i] == -1 || rankOf(proposerRank[i], match[i]) > pr
			jPrefersI := rmatch[j] == -1 || rankOf(reviewerRank[j], rmatch[j]) > rr
			if iPrefersJ && jPrefersI {
				return false // blocking pair (i, j)
			}
		}
	}
	return true
}
