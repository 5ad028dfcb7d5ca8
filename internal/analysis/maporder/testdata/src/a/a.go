// Package a is maporder analyzer testdata.
package a

import (
	"sort"

	"repro/internal/obs/flightrec"
)

type registry struct{}

func (r *registry) AddNode(id, cell int) {}

type sender struct{}

func (s *sender) Send(v int) {}

func unsortedAppend(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want `append to "out" inside map range`
	}
	return out
}

func sortedAppend(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func perKeyBucket(m map[int][]int) map[int][]int {
	out := map[int][]int{}
	for k, vs := range m {
		out[k] = append(out[k], vs...)
	}
	return out
}

func countOnly(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func emit(m map[int]int) {
	for k, v := range m {
		flightrec.Emit("comp", "ev", k, v) // want `flightrec.Emit called with map-iteration data`
	}
}

func sinkMethod(s *sender, m map[int]int) {
	for _, v := range m {
		s.Send(v) // want `s.Send called with map-iteration data`
	}
}

func mutate(r *registry, m map[int]int) {
	for id, cell := range m {
		r.AddNode(id, cell) // want `r.AddNode mutates state outside the map range`
	}
}

func floatSum(m map[int]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want `float \+= into "sum" inside map range`
	}
	return sum
}

func floatSumsPerKeyOrInts(m map[int]float64, n map[int]int) (map[int]float64, int) {
	out := map[int]float64{}
	for k, v := range m {
		out[k] += v
		out[k] -= v / 2
	}
	total := 0
	for _, v := range n {
		total += v
	}
	return out, total
}

func ignored(m map[int]int) []int {
	var out []int
	for k := range m {
		//lint:tinyleo-ignore order is re-established by the caller
		out = append(out, k)
	}
	return out
}

func malformed(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) //lint:tinyleo-ignore // want `append to "out"` `missing its mandatory reason`
	}
	return out
}
