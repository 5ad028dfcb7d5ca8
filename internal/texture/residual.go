package texture

import (
	"fmt"
	"math"
)

// This file is Eq. 3's covering arithmetic, the one copy every planner reads:
// the clamped residual r = max(ỹ − Ã·x, 0) the greedy solvers decrement, the
// satisfied demand Σ min(s, y) a supply earns, and what removing supply costs
// it. Each sum runs in column order, so every planner takes the same bits.

// Residual is the clamped residual of a demand ỹ under a placement x.
type Residual struct {
	R      []float64 // r_k ≥ 0 by unfolded column
	Total  float64   // ‖ỹ‖₁
	Remain float64   // ‖r‖₁
}

// Decrement is one column's residual decrement, as Apply logs it for Revert.
type Decrement struct {
	K   int
	Dec float64
}

// NewResidual returns the residual of demand with nothing placed: a copy of
// demand, its total and an equal remainder.
func NewResidual(demand []float64) Residual {
	r := Residual{R: append([]float64(nil), demand...)}
	for _, y := range demand {
		r.Total += y
	}
	r.Remain = r.Total
	return r
}

// Apply places x ≥ 1 satellites on v, valued by table: each column's r_k
// falls by x·v_k, clamped at zero. If undo is non-nil, every nonzero
// decrement is appended to it.
func (r *Residual) Apply(v View, table []float64, x int, undo *[]Decrement) {
	fx := float64(x)
	w := v.Walk(table)
	for w.Next() {
		k, vals := w.Start, w.Vals
		for _, e := range w.Entries {
			k += e.Gap()
			rk := r.R[k]
			if rk <= 0 {
				continue
			}
			dec := fx * vals.Of(e)
			if dec > rk {
				dec = rk
			}
			if dec != 0 {
				if undo != nil {
					*undo = append(*undo, Decrement{k, dec})
				}
				r.R[k] = rk - dec
				r.Remain -= dec
			}
		}
	}
}

// Revert adds back the decrements an Apply logged.
func (r *Residual) Revert(undo []Decrement) {
	for _, u := range undo {
		r.R[u.K] += u.Dec
		r.Remain += u.Dec
	}
}

// Availability returns the satisfied fraction of the demand, 1 − ‖r‖₁/‖ỹ‖₁,
// and 1 when there is no demand.
func (r *Residual) Availability() float64 {
	if r.Total == 0 {
		return 1
	}
	return 1 - r.Remain/r.Total
}

// Satisfied returns the demand supply satisfies, Σ min(s_k, y_k), and the
// total demand Σ y_k, both summed in column order. It panics unless the two
// vectors have one length.
func Satisfied(supply, demand []float64) (satisfied, total float64) {
	return SatisfiedScaled(supply, demand, 1)
}

// SatisfiedScaled is Satisfied for the demand scaled by scale: Σ min(s_k,
// y_k·scale) and Σ y_k·scale, each y_k·scale rounded once before it is
// compared and summed. A scale of 1 leaves every y_k exact.
func SatisfiedScaled(supply, demand []float64, scale float64) (satisfied, total float64) {
	if len(supply) != len(demand) {
		panic(fmt.Sprintf("texture: supply of length %d against demand of length %d", len(supply), len(demand)))
	}
	for k, y := range demand {
		y *= scale
		total += y
		if s := supply[k]; s < y {
			satisfied += s
		} else {
			satisfied += y
		}
	}
	return satisfied, total
}

// Availability returns the satisfied fraction of demand, Σ min(s, y) / Σ y,
// and 1 when there is no demand. It panics unless the two vectors have one
// length.
func Availability(supply, demand []float64) float64 {
	satisfied, total := Satisfied(supply, demand)
	if total == 0 {
		return 1
	}
	return satisfied / total
}

// RemovalDelta returns how the demand y a supply s satisfies changes when d
// is taken from s: min(s − d, y) − min(s, y), ≤ 0 for d ≥ 0.
func RemovalDelta(s, d, y float64) float64 {
	before, after := s, s-d
	if before > y {
		before = y
	}
	if after > y {
		after = y
	}
	return after - before
}

// CheckDemand returns an error unless every entry of y is finite and ≥ 0: a
// NaN or an infinity poisons every sum a planner takes, and a negative
// demand is no covering constraint.
func CheckDemand(y []float64) error {
	for k, v := range y {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("demand %v at entry %d, want finite and ≥ 0", v, k)
		}
	}
	return nil
}
