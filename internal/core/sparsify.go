// Package core implements TinyLEO's primary contribution: on-demand LEO
// network sparsification (paper §4.1, Algorithm 1). Given an over-complete
// texture library of Earth-repeat ground tracks and a spatiotemporally
// uneven demand field, it selects a sparse set of orbital slots — and the
// number of satellites per slot — that covers the demand everywhere,
// anytime, with as few satellites as possible.
//
// The solver is a covering variant of matching pursuit from compressed
// sensing: it temporally unfolds demand and coverage, repeatedly picks the
// ground track that satisfies the most residual demand, adds the
// least-squares number of satellites to it, and clamps the residual at
// zero (the covering constraint A·x ≥ y of Equation 3).
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/texture"
)

// Solver telemetry on the process-wide default registry (free unless
// obs.Enable() was called): per-iteration progress of Algorithm 1 — the
// Fig. 15c availability-vs-size trajectory as live series.
var (
	obsIterations   = obs.Default().Counter("tinyleo_sparsify_iterations_total")
	obsIterSeconds  = obs.Default().Histogram("tinyleo_sparsify_iteration_seconds", obs.DefBuckets)
	obsResidual     = obs.Default().Gauge("tinyleo_sparsify_residual_fraction")
	obsAvailability = obs.Default().Gauge("tinyleo_sparsify_availability")
	obsSatellites   = obs.Default().Gauge("tinyleo_sparsify_satellites")
	obsPruned       = obs.Default().Counter("tinyleo_sparsify_pruned_total")
)

// Problem describes one sparsification run.
type Problem struct {
	// Library is the candidate texture library (Ãᵀ, track-major).
	Library *texture.Library
	// Demand is the unfolded demand ỹ of length Library.UnfoldedLen(),
	// in satellite units per (slot, cell).
	Demand []float64
	// Epsilon is the network availability target ε ∈ (0, 1]: the solver
	// stops when at least ε of the total demand is satisfied (the paper
	// runs ε = 100% and a cheaper ε = 99%).
	Epsilon float64
	// MaxSatellites optionally caps the constellation size (0 = no cap).
	MaxSatellites int
	// MaxIterations caps MP iterations (0 = 10× the track count).
	MaxIterations int
	// MaxAddPerIteration caps how many satellites one iteration may add to
	// a single track (0 = 1, pure greedy — measurably sparser solutions;
	// raise it to trade solution quality for solver speed).
	MaxAddPerIteration int
	// Parallelism bounds the workers of the scan that scores every track
	// before the first iteration (0 = NumCPU).
	Parallelism int
	// DisablePrune skips the backward-elimination refinement pass that
	// removes satellites the greedy selection over-provisioned (the
	// pruning idea of CoSaMP [22], which the paper's Algorithm 1 builds
	// on). Pruning never lowers availability below ε.
	DisablePrune bool
	// OnIteration, if non-nil, observes solver progress after every
	// iteration (used to draw the availability-vs-size curve of Fig. 15c).
	OnIteration func(it IterationStat)
}

// IterationStat is one row of solver progress.
type IterationStat struct {
	Iteration    int
	Track        int     // chosen track index
	Added        int     // satellites added this iteration
	Satellites   int     // cumulative satellites
	Availability float64 // fraction of demand satisfied so far
}

// Result is a sparsified constellation.
type Result struct {
	// X[j] is the number of satellites placed on library track j.
	X []int
	// Satellites is ‖x‖₁, the objective of Equation 2.
	Satellites int
	// Availability is the satisfied fraction of total demand.
	Availability float64
	// Iterations is the number of MP iterations executed.
	Iterations int
	// Trace records per-iteration progress (same data OnIteration sees).
	Trace []IterationStat
	// Pruned counts satellites removed by the backward-elimination pass.
	Pruned int
}

// ErrNoProgress is returned when remaining demand cannot be covered by any
// candidate track (e.g. polar demand with no high-inclination candidates).
var ErrNoProgress = errors.New("core: residual demand not coverable by any candidate track")

// Sparsify runs Algorithm 1.
func Sparsify(p Problem) (*Result, error) {
	if p.Library == nil {
		return nil, errors.New("core: nil library")
	}
	n := p.Library.NumTracks()
	if len(p.Demand) != p.Library.UnfoldedLen() {
		return nil, fmt.Errorf("core: demand length %d, want %d", len(p.Demand), p.Library.UnfoldedLen())
	}
	if err := checkDemand("demand", p.Demand); err != nil {
		return nil, err
	}
	if err := checkEpsilon(p.Epsilon); err != nil {
		return nil, err
	}
	st := newSolverState(p)
	res := &Result{X: make([]int, n)}
	if err := st.run(res); err != nil {
		return res, err
	}
	if !p.DisablePrune {
		prune(p, res, nil)
	}
	return res, nil
}

// prune is the backward-elimination refinement: repeatedly remove the
// satellite whose removal hurts satisfied demand least, as long as the
// availability target still holds. Greedy forward selection routinely
// over-provisions cells that later picks also cover; this recovers that
// slack (CoSaMP-style pruning [22]). floor, when non-nil, bounds each
// track's count from below (already-launched satellites cannot be pruned
// during incremental expansion).
func prune(p Problem, res *Result, floor []int) {
	lib := p.Library
	supply := lib.Supply(res.X)
	total, satisfied := 0.0, 0.0
	for k, y := range p.Demand {
		total += y
		if s := supply[k]; s < y {
			satisfied += s
		} else {
			satisfied += y
		}
	}
	target := p.Epsilon * total
	fracs := lib.Fractions()
	// satisfiedDelta returns the satisfied-demand change from removing one
	// satellite of track j.
	satisfiedDelta := func(j int) float64 {
		d := 0.0
		row := lib.TrackRow(j)
		ents := row.Entries
		for _, sg := range row.Segs {
			k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
			for _, e := range ents[:n] {
				k += e.Gap()
				y := p.Demand[k]
				if y == 0 {
					continue
				}
				before := supply[k]
				after := before - vals.Of(e)
				ob, oa := before, after
				if ob > y {
					ob = y
				}
				if oa > y {
					oa = y
				}
				d += oa - ob // ≤ 0
			}
			ents = ents[n:]
		}
		return d
	}
	for {
		bestJ, bestDelta := -1, math.Inf(-1)
		for j, x := range res.X {
			if x == 0 || (floor != nil && x <= floor[j]) {
				continue
			}
			if d := satisfiedDelta(j); satisfied+d >= target-1e-9 && d > bestDelta {
				bestJ, bestDelta = j, d
			}
		}
		if bestJ < 0 {
			break
		}
		res.X[bestJ]--
		res.Satellites--
		res.Pruned++
		obsPruned.Inc()
		satisfied += bestDelta
		texture.AddRow(supply, lib.TrackRow(bestJ), fracs, -1)
	}
	if total > 0 {
		res.Availability = satisfied / total
	}
}

// Expand continues a previous run with additional demand: the paper's
// incremental LEO network expansion (§4.1). The existing satellites in
// prev.X are kept; only new ones are added to satisfy extraDemand (an
// unfolded vector). Returns the combined result.
func Expand(p Problem, prev *Result, extraDemand []float64) (*Result, error) {
	if len(extraDemand) != p.Library.UnfoldedLen() {
		return nil, fmt.Errorf("core: extra demand length %d, want %d", len(extraDemand), p.Library.UnfoldedLen())
	}
	if len(p.Demand) != len(extraDemand) {
		return nil, fmt.Errorf("core: demand length %d, want %d", len(p.Demand), len(extraDemand))
	}
	if len(prev.X) != p.Library.NumTracks() {
		return nil, errors.New("core: previous result does not match library")
	}
	if err := checkEpsilon(p.Epsilon); err != nil {
		return nil, err
	}
	// New problem: total demand is old + extra; the residual starts from
	// the existing supply.
	combined := make([]float64, len(extraDemand))
	for k := range combined {
		combined[k] = p.Demand[k] + extraDemand[k]
	}
	if err := checkDemand("combined demand", combined); err != nil {
		return nil, err
	}
	p2 := p
	p2.Demand = combined
	st := newSolverState(p2)
	res := &Result{X: append([]int(nil), prev.X...)}
	// Deduct existing supply from the residual.
	for j, x := range res.X {
		if x > 0 {
			st.apply(j, x)
			res.Satellites += x
		}
	}
	if err := st.run(res); err != nil {
		return res, err
	}
	if !p.DisablePrune {
		prune(p2, res, prev.X) // launched satellites are a hard floor
	}
	return res, nil
}

// checkEpsilon returns an error unless ε is in (0, 1]; the comparison is
// written so that NaN fails it.
func checkEpsilon(eps float64) error {
	if !(eps > 0 && eps <= 1) {
		return fmt.Errorf("core: epsilon %v outside (0,1]", eps)
	}
	return nil
}

// checkDemand returns an error unless every entry of y is finite and ≥ 0: a
// NaN or an infinity poisons every sum the solver takes, and a negative
// demand is no covering constraint.
func checkDemand(what string, y []float64) error {
	for k, v := range y {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("core: %s %v at entry %d, want finite and ≥ 0", what, v, k)
		}
	}
	return nil
}

type solverState struct {
	p        Problem
	residual []float64 // clamped at ≥ 0
	total    float64   // ‖ỹ‖₁
	remain   float64   // ‖r‖₁
	workers  int
	// applied counts apply calls; a candidate scored at the current count
	// is fresh. queue is nil until the first argmax.
	applied int
	queue   candidateHeap
}

func newSolverState(p Problem) *solverState {
	st := &solverState{p: p, residual: append([]float64(nil), p.Demand...)}
	for _, v := range p.Demand {
		st.total += v
	}
	st.remain = st.total
	st.workers = p.Parallelism
	if st.workers <= 0 {
		st.workers = runtime.NumCPU()
	}
	return st
}

// apply places x satellites on track j, decrementing the clamped residual.
func (st *solverState) apply(j, x int) {
	fx := float64(x)
	row, fracs := st.p.Library.TrackRow(j), st.p.Library.Fractions()
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			r := st.residual[k]
			if r <= 0 {
				continue
			}
			dec := fx * vals.Of(e)
			if dec > r {
				dec = r
			}
			st.residual[k] = r - dec
			st.remain -= dec
		}
		ents = ents[n:]
	}
	st.applied++
}

// candidate is one track's score against the residual as it stood after
// `applied` apply calls.
type candidate struct {
	j                       int
	satisfiable, dot, norm2 float64
	applied                 int
}

// score returns how much residual demand one satellite on track j would
// satisfy (Σ_k min(A_jk, r_k)) together with the raw dot product A_jᵀr and
// ‖A_j‖² restricted to unsatisfied entries, used for the add count.
func (st *solverState) score(j int) candidate {
	satisfiable, dot, norm2 := texture.Score(st.p.Library.TrackRow(j), st.p.Library.Fractions(), st.residual)
	return candidate{j: j, satisfiable: satisfiable, dot: dot, norm2: norm2, applied: st.applied}
}

func (st *solverState) run(res *Result) error {
	p := st.p
	n := p.Library.NumTracks()
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	maxAdd := p.MaxAddPerIteration
	if maxAdd <= 0 {
		maxAdd = 1
	}
	target := (1 - p.Epsilon) * st.total

	span := obs.StartSpan("core.sparsify", "tracks", strconv.Itoa(n))
	defer span.End()
	for res.Iterations < maxIter && st.remain > target+1e-9 {
		iterStart := time.Now()
		best := st.argmax()
		j, satisfiable := best.j, best.satisfiable
		if satisfiable <= 1e-12 {
			res.Availability = st.availability()
			return fmt.Errorf("%w: %.4f of demand satisfied", ErrNoProgress, res.Availability)
		}
		// Least-squares coefficient, clamped to [1, maxAdd]; never add more
		// than needed to close the availability gap on this track alone.
		add := int(math.Ceil(best.dot / best.norm2))
		if add < 1 {
			add = 1
		}
		if add > maxAdd {
			add = maxAdd
		}
		if gap := int(math.Ceil((st.remain - target) / satisfiable)); add > gap {
			add = gap
		}
		if p.MaxSatellites > 0 && res.Satellites+add > p.MaxSatellites {
			add = p.MaxSatellites - res.Satellites
			if add <= 0 {
				break
			}
		}
		st.apply(j, add)
		res.X[j] += add
		res.Satellites += add
		res.Iterations++
		stat := IterationStat{
			Iteration:    res.Iterations,
			Track:        j,
			Added:        add,
			Satellites:   res.Satellites,
			Availability: st.availability(),
		}
		res.Trace = append(res.Trace, stat)
		obsIterations.Inc()
		obsIterSeconds.ObserveDuration(time.Since(iterStart))
		obsAvailability.Set(stat.Availability)
		obsResidual.Set(1 - stat.Availability)
		obsSatellites.Set(float64(res.Satellites))
		if flightrec.Enabled() {
			flightrec.Emit(flightrec.CompCore, "sparsify_iter",
				"iter", strconv.Itoa(stat.Iteration),
				"track", strconv.Itoa(stat.Track),
				"added", strconv.Itoa(stat.Added),
				"satellites", strconv.Itoa(stat.Satellites),
				"availability", strconv.FormatFloat(stat.Availability, 'f', 4, 64))
		}
		if p.OnIteration != nil {
			p.OnIteration(stat)
		}
	}
	res.Availability = st.availability()
	return nil
}

func (st *solverState) availability() float64 {
	if st.total == 0 {
		return 1
	}
	return 1 - st.remain/st.total
}

// argmax returns the track whose single satellite satisfies the most
// residual demand, the lowest-numbered of equals (Algorithm 1 lines 6–7), and
// a zero candidate when no track satisfies any.
//
// It is a lazy-greedy selection and it is exact. The residual only ever
// shrinks, and score sums one track's terms in one fixed order — each term no
// larger than when it was last computed, or dropped — so, floating-point
// addition being monotone, a score taken against an earlier residual is an
// upper bound on the track's score now. The tracks wait in a heap ordered by
// their last score, then by index; only the top is ever re-scored, and once
// the top is fresh every other track's bound, hence its true score, orders
// after it. The full scan this replaces returned the same track. A track
// whose score reaches zero can never be chosen again and leaves the heap.
func (st *solverState) argmax() candidate {
	if st.queue == nil {
		st.queue = st.scoreAll()
	}
	q := st.queue
	for len(q) > 0 && q[0].applied != st.applied {
		if q[0] = st.score(q[0].j); q[0].satisfiable == 0 {
			q[0] = q[len(q)-1]
			q = q[:len(q)-1]
		}
		q.down(0)
	}
	st.queue = q
	if len(q) == 0 {
		return candidate{}
	}
	return q[0]
}

// scoreAll scores every track against the current residual in parallel (§5:
// "we have also parallelized Algorithm 1's demand matching of all orbit
// candidates") and returns those that satisfy any demand as a heap.
func (st *solverState) scoreAll() candidateHeap {
	n := st.p.Library.NumTracks()
	all := make(candidateHeap, n)
	workers := min(st.workers, n)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				all[j] = st.score(j)
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	q := all[:0]
	for _, c := range all {
		if c.satisfiable > 0 {
			q = append(q, c)
		}
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

// candidateHeap is a binary max-heap by (satisfiable, then lower j).
type candidateHeap []candidate

func (q candidateHeap) before(a, b int) bool {
	return q[a].satisfiable > q[b].satisfiable || (q[a].satisfiable == q[b].satisfiable && q[a].j < q[b].j)
}

// down restores the heap below i.
func (q candidateHeap) down(i int) {
	for {
		top := 2*i + 1
		if top >= len(q) {
			return
		}
		if r := top + 1; r < len(q) && q.before(r, top) {
			top = r
		}
		if !q.before(top, i) {
			return
		}
		q[i], q[top] = q[top], q[i]
		i = top
	}
}

// Verify recomputes availability of a result against a demand vector from
// scratch (independent of solver state), for tests and experiments.
func Verify(lib *texture.Library, x []int, demand []float64) float64 {
	supply := lib.Supply(x)
	tot, sat := 0.0, 0.0
	for k, y := range demand {
		tot += y
		s := supply[k]
		if s < y {
			sat += s
		} else {
			sat += y
		}
	}
	if tot == 0 {
		return 1
	}
	return sat / tot
}

// ChosenTracks returns the indices of tracks with x > 0.
func (r *Result) ChosenTracks() []int {
	var out []int
	for j, x := range r.X {
		if x > 0 {
			out = append(out, j)
		}
	}
	return out
}
