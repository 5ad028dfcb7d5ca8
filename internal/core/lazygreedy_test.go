package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// The oracle: Algorithm 1 with the selection the lazy-greedy queue replaced,
// a scan that scores every track against the current residual at every
// iteration and keeps the best, the lowest index among equals. It shares
// score, apply and prune with the solver and nothing of the queue.

func fullScanArgmax(st *solverState) candidate {
	var best candidate
	for j := 0; j < st.p.Library.NumTracks(); j++ {
		if c := st.score(j); c.satisfiable > best.satisfiable {
			best = c
		}
	}
	return best
}

func oracleRun(st *solverState, res *Result) error {
	p := st.p
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10 * p.Library.NumTracks()
	}
	maxAdd := max(p.MaxAddPerIteration, 1)
	target := (1 - p.Epsilon) * st.r.Total
	for res.Iterations < maxIter && st.r.Remain > target+1e-9 {
		best := fullScanArgmax(st)
		if best.satisfiable <= 1e-12 {
			res.Availability = st.r.Availability()
			return fmt.Errorf("%w: %.4f of demand satisfied", ErrNoProgress, res.Availability)
		}
		add := min(max(int(math.Ceil(best.dot/best.norm2)), 1), maxAdd)
		add = min(add, int(math.Ceil((st.r.Remain-target)/best.satisfiable)))
		if p.MaxSatellites > 0 && res.Satellites+add > p.MaxSatellites {
			if add = p.MaxSatellites - res.Satellites; add <= 0 {
				break
			}
		}
		st.apply(best.j, add)
		res.X[best.j] += add
		res.Satellites += add
		res.Iterations++
		res.Trace = append(res.Trace, IterationStat{
			Iteration: res.Iterations, Track: best.j, Added: add,
			Satellites: res.Satellites, Availability: st.r.Availability(),
		})
	}
	res.Availability = st.r.Availability()
	return nil
}

func oracleSparsify(p Problem) (*Result, error) {
	res := &Result{X: make([]int, p.Library.NumTracks())}
	if err := oracleRun(newSolverState(p), res); err != nil {
		return res, err
	}
	if !p.DisablePrune {
		prune(p, res, nil)
	}
	return res, nil
}

func oracleExpand(p Problem, prev *Result, extra []float64) (*Result, error) {
	p.Demand = append([]float64(nil), p.Demand...)
	for k, y := range extra {
		p.Demand[k] += y
	}
	st := newSolverState(p)
	res := &Result{X: append([]int(nil), prev.X...)}
	for j, x := range res.X {
		if x > 0 {
			st.apply(j, x)
			res.Satellites += x
		}
	}
	if err := oracleRun(st, res); err != nil {
		return res, err
	}
	if !p.DisablePrune {
		prune(p, res, prev.X)
	}
	return res, nil
}

// sameOutcome fails unless the solver and the oracle returned the same
// result, bit for bit, and the same error.
func sameOutcome(t *testing.T, what string, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) ||
		errors.Is(gotErr, ErrNoProgress) != errors.Is(wantErr, ErrNoProgress) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("%s: X differs from the oracle's\n got %v\nwant %v", what, got.X, want.X)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("%s: Trace differs from the oracle's", what)
	}
	if got.Iterations != want.Iterations || got.Satellites != want.Satellites || got.Pruned != want.Pruned ||
		math.Float64bits(got.Availability) != math.Float64bits(want.Availability) {
		t.Fatalf("%s: %d iterations, %d satellites, %d pruned, availability %v; oracle %d, %d, %d, %v", what,
			got.Iterations, got.Satellites, got.Pruned, got.Availability,
			want.Iterations, want.Satellites, want.Pruned, want.Availability)
	}
}

// randomLibrary builds a small seeded library. Repeated inclinations give
// tracks with identical rows, hence exact score ties at every iteration.
func randomLibrary(t *testing.T, rng *rand.Rand) *texture.Library {
	t.Helper()
	specs := []orbit.RepeatSpec{{P: 1, Q: 15}, {P: 1, Q: 14}, {P: 1, Q: 13}, {P: 2, Q: 29}}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	incs := make([]float64, 1+rng.Intn(4))
	for i := range incs {
		incs[i] = []float64{20, 53, 53, 70, 85, -53, 97.6}[rng.Intn(7)]
	}
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid([]float64{10, 15, 20}[rng.Intn(3)]),
		Specs:           specs[:1+rng.Intn(2)],
		InclinationsDeg: incs,
		RAANs:           2 + rng.Intn(4),
		Phases:          1 + rng.Intn(3),
		Slots:           2 + rng.Intn(5),
		SubSamples:      1 + rng.Intn(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// randomDemand is zero on a seeded share of the (slot, cell) pairs, and
// either flat — so that whole groups of tracks tie — or uneven elsewhere.
func randomDemand(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	density, flat, level := 0.05+0.9*rng.Float64(), rng.Intn(3) == 0, 0.02+rng.Float64()
	for k := range y {
		switch {
		case rng.Float64() > density:
		case flat:
			y[k] = level
		default:
			y[k] = 2 * level * rng.Float64()
		}
	}
	return y
}

// choseTiedTrack reports whether x places a satellite on a track that has a
// twin: another track with the same row, which scores the same at every
// iteration.
func choseTiedTrack(lib *texture.Library, x []int) bool {
	row := func(j int) (out [][2]float64) {
		w := lib.TrackView(j).Walk(lib.Fractions())
		for w.Next() {
			k := w.Start
			for _, e := range w.Entries {
				k += e.Gap()
				out = append(out, [2]float64{float64(k), w.Vals.Of(e)})
			}
		}
		return out
	}
	for j, n := range x {
		if n == 0 {
			continue
		}
		a := row(j)
		for k := range x {
			if k != j && reflect.DeepEqual(a, row(k)) {
				return true
			}
		}
	}
	return false
}

// TestLazyGreedyMatchesFullScan is the equivalence the planner's speed rests
// on: on seeded random libraries and demands the lazy-greedy solver returns
// what the full scan returns — same tracks in the same order, same counts,
// same availability bits — through ties, zero-demand cells, batched adds,
// the satellite cap, expansion from a non-empty constellation and the
// no-progress error.
func TestLazyGreedyMatchesFullScan(t *testing.T) {
	noProgress, capped, ties := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lib := randomLibrary(t, rng)
		p := Problem{
			Library:            lib,
			Demand:             randomDemand(rng, lib.UnfoldedLen()),
			Epsilon:            []float64{0.7, 0.9, 0.99, 1}[rng.Intn(4)],
			MaxAddPerIteration: []int{0, 1, 4, 16}[rng.Intn(4)],
			Parallelism:        1 + rng.Intn(3),
			DisablePrune:       rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			p.MaxSatellites = 1 + rng.Intn(30)
		}
		what := fmt.Sprintf("seed %d sparsify", seed)
		want, wantErr := oracleSparsify(p)
		got, gotErr := Sparsify(p)
		sameOutcome(t, what, got, want, gotErr, wantErr)
		switch {
		case errors.Is(gotErr, ErrNoProgress):
			noProgress++
			continue
		case p.MaxSatellites > 0 && got.Satellites+got.Pruned == p.MaxSatellites:
			capped++
		}
		if choseTiedTrack(lib, got.X) {
			ties++
		}

		p.MaxSatellites = 0
		extra := randomDemand(rng, lib.UnfoldedLen())
		what = fmt.Sprintf("seed %d expand", seed)
		want, wantErr = oracleExpand(p, got, extra)
		got, gotErr = Expand(p, got, extra)
		sameOutcome(t, what, got, want, gotErr, wantErr)
	}
	// The seeds must reach the paths the equivalence is claimed over.
	if noProgress == 0 || capped == 0 || ties == 0 {
		t.Errorf("seeds reached %d no-progress runs, %d capped runs, %d runs choosing a tied track; want each > 0",
			noProgress, capped, ties)
	}
}
