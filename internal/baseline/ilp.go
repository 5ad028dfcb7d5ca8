package baseline

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/texture"
)

// ILPConfig drives the exact branch-and-bound solver for the covering
// integer program of Equations 2–4 (min ‖x‖₁ s.t. Ã·x ≥ ỹ). It is the
// stand-in for the paper's Gurobi runs, which were *truncated after two
// months* without completing; this solver is likewise exact given unbounded
// time and returns its best incumbent at the deadline.
type ILPConfig struct {
	Library *texture.Library
	Demand  []float64
	Epsilon float64
	// Budget is the wall-clock truncation budget (0 = 2 s).
	Budget time.Duration
	// MaxNodes caps explored branch-and-bound nodes (0 = 1e6).
	MaxNodes int
}

// ILPResult is the incumbent at termination.
type ILPResult struct {
	X            []int
	Satellites   int
	Availability float64
	Nodes        int
	Truncated    bool // deadline or node cap hit before the search space was exhausted
}

// SolveILP runs best-incumbent depth-first branch and bound. Branching
// picks the track with maximum satisfiable residual demand and tries
// satellite counts from the greedy value down to zero, so the first leaf
// reached is the greedy solution and pruning tightens from there.
func SolveILP(cfg ILPConfig) (*ILPResult, error) {
	if cfg.Library == nil {
		return nil, errors.New("baseline: nil library")
	}
	if len(cfg.Demand) != cfg.Library.UnfoldedLen() {
		return nil, errors.New("baseline: ILP demand length mismatch")
	}
	for k, v := range cfg.Demand {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("baseline: ILP demand %v at entry %d, want finite and ≥ 0", v, k)
		}
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon <= 1) {
		return nil, errors.New("baseline: ILP epsilon outside (0,1]")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 1_000_000
	}
	s := &ilpSolver{
		cfg:      cfg,
		deadline: time.Now().Add(cfg.Budget),
		residual: append([]float64(nil), cfg.Demand...),
		fixed:    make([]bool, cfg.Library.NumTracks()),
		x:        make([]int, cfg.Library.NumTracks()),
		bestX:    nil,
		bestSats: math.MaxInt32,
	}
	for _, v := range cfg.Demand {
		s.total += v
	}
	s.remain = s.total
	s.target = (1 - cfg.Epsilon) * s.total
	// Per-satellite satisfiable upper bound per track against the *full*
	// demand: admissible for the lower bound at any node.
	s.maxSat = 0
	fracs := cfg.Library.Fractions()
	for j := 0; j < cfg.Library.NumTracks(); j++ {
		sat := 0.0
		row := cfg.Library.TrackRow(j)
		ents := row.Entries
		for _, sg := range row.Segs {
			k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
			for _, e := range ents[:n] {
				k += e.Gap()
				if y, frac := cfg.Demand[k], vals.Of(e); frac < y {
					sat += frac
				} else {
					sat += y
				}
			}
			ents = ents[n:]
		}
		if sat > s.maxSat {
			s.maxSat = sat
		}
	}
	s.dfs(0)
	res := &ILPResult{Nodes: s.nodes, Truncated: s.truncated}
	if s.bestX == nil {
		// No feasible leaf found (budget too small or demand uncoverable):
		// report the empty incumbent.
		res.X = make([]int, cfg.Library.NumTracks())
		res.Availability = 0
		if s.total == 0 {
			res.Availability = 1
		}
		return res, nil
	}
	res.X = s.bestX
	for _, v := range s.bestX {
		res.Satellites += v
	}
	res.Availability = s.bestAvail
	return res, nil
}

type ilpSolver struct {
	cfg       ILPConfig
	deadline  time.Time
	residual  []float64
	fixed     []bool
	x         []int
	sats      int
	total     float64
	remain    float64
	target    float64
	maxSat    float64
	nodes     int
	truncated bool
	bestX     []int
	bestSats  int
	bestAvail float64
}

func (s *ilpSolver) availability() float64 {
	if s.total == 0 {
		return 1
	}
	return 1 - s.remain/s.total
}

// apply places (or removes, for negative add) satellites on track j,
// updating the clamped residual, and returns the residual delta for undo.
func (s *ilpSolver) apply(j, add int) []undoEntry {
	var undo []undoEntry
	fx := float64(add)
	row, fracs := s.cfg.Library.TrackRow(j), s.cfg.Library.Fractions()
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			r := s.residual[k]
			if r <= 0 {
				continue
			}
			dec := fx * vals.Of(e)
			if dec > r {
				dec = r
			}
			if dec != 0 {
				undo = append(undo, undoEntry{k, dec})
				s.residual[k] = r - dec
				s.remain -= dec
			}
		}
		ents = ents[n:]
	}
	return undo
}

type undoEntry struct {
	k   int
	dec float64
}

func (s *ilpSolver) revert(undo []undoEntry) {
	for _, u := range undo {
		s.residual[u.k] += u.dec
		s.remain += u.dec
	}
}

func (s *ilpSolver) dfs(depth int) {
	s.nodes++
	if s.nodes >= s.cfg.MaxNodes || time.Now().After(s.deadline) {
		s.truncated = true
		return
	}
	if s.remain <= s.target+1e-9 {
		if s.sats < s.bestSats {
			s.bestSats = s.sats
			s.bestX = append([]int(nil), s.x...)
			s.bestAvail = s.availability()
		}
		return
	}
	// Lower bound: satellites needed even if every further satellite
	// satisfied the global per-satellite maximum.
	lb := s.sats + int(math.Ceil((s.remain-s.target)/s.maxSat))
	if lb >= s.bestSats {
		return
	}
	// Pick the unfixed track with max satisfiable residual.
	bestJ, bestSatis, bestDot, bestNorm := -1, 0.0, 0.0, 0.0
	fracs := s.cfg.Library.Fractions()
	for j := 0; j < s.cfg.Library.NumTracks(); j++ {
		if s.fixed[j] {
			continue
		}
		satis, dot, norm := texture.Score(s.cfg.Library.TrackRow(j), fracs, s.residual)
		if satis > bestSatis {
			bestJ, bestSatis, bestDot, bestNorm = j, satis, dot, norm
		}
	}
	if bestJ < 0 {
		return // residual uncoverable on this branch
	}
	// Try counts from the greedy value down to zero.
	greedy := int(math.Ceil(bestDot / bestNorm))
	if greedy < 1 {
		greedy = 1
	}
	if cap := int(math.Ceil((s.remain - s.target) / bestSatis)); greedy > cap {
		greedy = cap
	}
	s.fixed[bestJ] = true
	for v := greedy; v >= 0 && !s.truncated; v-- {
		if s.sats+v >= s.bestSats {
			continue
		}
		var undo []undoEntry
		if v > 0 {
			undo = s.apply(bestJ, v)
		}
		s.x[bestJ] = v
		s.sats += v
		s.dfs(depth + 1)
		s.sats -= v
		s.x[bestJ] = 0
		if v > 0 {
			s.revert(undo)
		}
	}
	s.fixed[bestJ] = false
}
