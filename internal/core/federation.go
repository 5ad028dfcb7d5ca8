package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/texture"
)

// This file implements the paper's §7 "LEO network decentralization"
// direction: several operators — each owning a regional demand — contribute
// satellites to a federated constellation. Because TinyLEO's planner is
// incremental (Algorithm 1's greedy residual matching), a later entrant
// plans only against the demand the existing federation leaves unsatisfied,
// so each contributes "its (regional) networks at low costs" while the
// union serves everyone.

// Operator is one federation participant.
type Operator struct {
	Name string
	// Demand is the operator's unfolded demand vector.
	Demand []float64
	// Epsilon is the availability the operator requires for its own demand.
	Epsilon float64
}

// FederationResult reports a multi-operator plan.
type FederationResult struct {
	// Contributions[name] is each operator's satellite placement (what it
	// must launch and operate).
	Contributions map[string][]int
	// Combined is the federated constellation (sum of contributions).
	Combined []int
	// Satellites is the federated total.
	Satellites int
	// Availability[name] is each operator's achieved availability against
	// the *combined* constellation.
	Availability map[string]float64
	// IndependentSatellites is what the same operators would need in total
	// without federation (each planning alone).
	IndependentSatellites int
	// SharingGain = IndependentSatellites − Satellites: launches saved by
	// federating.
	SharingGain int
}

// Federate plans a federated constellation: operators join in the given
// order (earlier entrants plan first; §7's "more entrants" join
// incrementally), each adding only the satellites its residual demand
// needs given everything already in orbit. It also prices the
// no-federation alternative for comparison.
func Federate(p Problem, operators []Operator) (*FederationResult, error) {
	if p.Library == nil {
		return nil, errors.New("core: nil library")
	}
	if len(operators) == 0 {
		return nil, errors.New("core: no operators")
	}
	n := p.Library.NumTracks()
	res := &FederationResult{
		Contributions: map[string][]int{},
		Combined:      make([]int, n),
		Availability:  map[string]float64{},
	}
	seen := map[string]bool{}
	for _, op := range operators {
		if seen[op.Name] {
			return nil, fmt.Errorf("core: duplicate operator %q", op.Name)
		}
		seen[op.Name] = true
		if len(op.Demand) != p.Library.UnfoldedLen() {
			return nil, fmt.Errorf("core: operator %q demand length %d, want %d",
				op.Name, len(op.Demand), p.Library.UnfoldedLen())
		}
		if !(op.Epsilon > 0 && op.Epsilon <= 1) {
			return nil, fmt.Errorf("core: operator %q epsilon %v outside (0,1]", op.Name, op.Epsilon)
		}
		// What does the existing federation already give this operator?
		supply := p.Library.Supply(res.Combined)
		satisfiedOp, totalOp := texture.Satisfied(supply, op.Demand)
		residual := make([]float64, len(op.Demand))
		for k, y := range op.Demand {
			if s := supply[k]; s < y {
				residual[k] = y - s
			}
		}
		contrib := make([]int, n)
		if totalOp > 0 && satisfiedOp < op.Epsilon*totalOp-1e-9 {
			// Plan only the residual, at the fraction that closes the gap:
			// satisfying epsRes of the residual lifts the operator to ε.
			residualTotal := totalOp - satisfiedOp
			epsRes := (op.Epsilon*totalOp - satisfiedOp) / residualTotal
			prob := p
			prob.Demand = residual
			prob.Epsilon = epsRes
			plan, err := Sparsify(prob)
			if err != nil {
				return nil, fmt.Errorf("core: federating %q: %w", op.Name, err)
			}
			contrib = plan.X
			for j, x := range contrib {
				res.Combined[j] += x
			}
		}
		res.Contributions[op.Name] = contrib
	}
	for _, x := range res.Combined {
		res.Satellites += x
	}
	// Each operator's availability against the shared fleet.
	for _, op := range operators {
		res.Availability[op.Name] = Verify(p.Library, res.Combined, op.Demand)
	}
	// The no-federation price: every operator plans alone.
	for _, op := range operators {
		prob := p
		prob.Demand = op.Demand
		prob.Epsilon = op.Epsilon
		solo, err := Sparsify(prob)
		if err != nil {
			return nil, fmt.Errorf("core: solo plan for %q: %w", op.Name, err)
		}
		res.IndependentSatellites += solo.Satellites
	}
	res.SharingGain = res.IndependentSatellites - res.Satellites
	return res, nil
}

// OperatorNames returns the federation's operator names, sorted.
func (r *FederationResult) OperatorNames() []string {
	out := make([]string, 0, len(r.Contributions))
	for name := range r.Contributions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ContributionSize returns how many satellites an operator launched.
func (r *FederationResult) ContributionSize(name string) int {
	n := 0
	for _, x := range r.Contributions[name] {
		n += x
	}
	return n
}
