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
// reached is the greedy solution and pruning tightens from there. Demand
// that no track covers is an error, as it is for core.Sparsify.
func SolveILP(cfg ILPConfig) (*ILPResult, error) {
	if cfg.Library == nil {
		return nil, errors.New("baseline: nil library")
	}
	if len(cfg.Demand) != cfg.Library.UnfoldedLen() {
		return nil, errors.New("baseline: ILP demand length mismatch")
	}
	if err := texture.CheckDemand(cfg.Demand); err != nil {
		return nil, fmt.Errorf("baseline: ILP %w", err)
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
		r:        texture.NewResidual(cfg.Demand),
		fixed:    make([]bool, cfg.Library.NumTracks()),
		x:        make([]int, cfg.Library.NumTracks()),
		bestSats: math.MaxInt32,
	}
	s.target = (1 - cfg.Epsilon) * s.r.Total
	// Per-satellite satisfiable upper bound per track against the *full*
	// demand: admissible for the lower bound at any node.
	for j := 0; j < cfg.Library.NumTracks(); j++ {
		sat, _, _ := texture.Score(cfg.Library.TrackView(j), cfg.Library.Fractions(), cfg.Demand)
		s.maxSat = max(s.maxSat, sat)
	}
	if s.maxSat == 0 && s.r.Total > 0 {
		return nil, errors.New("baseline: ILP demand not coverable by any candidate track")
	}
	s.dfs(0)
	res := &ILPResult{Nodes: s.nodes, Truncated: s.truncated}
	if s.bestX == nil {
		// No feasible leaf found (budget too small or demand uncoverable):
		// report the empty incumbent.
		res.X = make([]int, cfg.Library.NumTracks())
		res.Availability = 0
		if s.r.Total == 0 {
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
	r         texture.Residual
	fixed     []bool
	x         []int
	sats      int
	target    float64
	maxSat    float64
	nodes     int
	truncated bool
	bestX     []int
	bestSats  int
	bestAvail float64
}

func (s *ilpSolver) dfs(depth int) {
	s.nodes++
	if s.nodes >= s.cfg.MaxNodes || time.Now().After(s.deadline) {
		s.truncated = true
		return
	}
	if s.r.Remain <= s.target+1e-9 {
		if s.sats < s.bestSats {
			s.bestSats = s.sats
			s.bestX = append([]int(nil), s.x...)
			s.bestAvail = s.r.Availability()
		}
		return
	}
	// Lower bound: satellites needed even if every further satellite
	// satisfied the global per-satellite maximum.
	lb := s.sats + int(math.Ceil((s.r.Remain-s.target)/s.maxSat))
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
		satis, dot, norm := texture.Score(s.cfg.Library.TrackView(j), fracs, s.r.R)
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
	if cap := int(math.Ceil((s.r.Remain - s.target) / bestSatis)); greedy > cap {
		greedy = cap
	}
	s.fixed[bestJ] = true
	for v := greedy; v >= 0 && !s.truncated; v-- {
		if s.sats+v >= s.bestSats {
			continue
		}
		var undo []texture.Decrement
		if v > 0 {
			s.r.Apply(s.cfg.Library.TrackView(bestJ), fracs, v, &undo)
		}
		s.x[bestJ] = v
		s.sats += v
		s.dfs(depth + 1)
		s.sats -= v
		s.x[bestJ] = 0
		s.r.Revert(undo)
	}
	s.fixed[bestJ] = false
}
