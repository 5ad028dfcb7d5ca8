package baseline

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/orbit"
	"repro/internal/texture"
)

// ShellReduceConfig drives the multi-shell MegaReduce variant used in the
// Figure 15 pipeline: starting from a mega-constellation's shells, it
// iteratively removes whole orbital planes (then individual satellites)
// while the availability target holds. The layout stays uniform at plane
// granularity — MegaReduce's defining constraint — which is why it cannot
// approach TinyLEO's savings on longitudinally uneven demand.
type ShellReduceConfig struct {
	Supply SupplyConfig
	// Demand is the unfolded demand, Supply.Slots × cells long, every
	// entry finite and ≥ 0.
	Demand  []float64
	Epsilon float64
	Shells  []Shell
	// MaxSteps caps accepted shrink moves (0 = 100,000).
	MaxSteps int
	// OnStep observes accepted moves.
	OnStep func(removedSats int, availability float64)
}

// ShellReduceResult is the shrunk constellation.
type ShellReduceResult struct {
	Satellites   int
	Removed      int
	Availability float64
	Steps        int
	// Remaining holds the surviving satellites.
	Remaining []orbit.Elements
	// PerShell counts survivors per input shell.
	PerShell []int
	// EntriesVisited counts the coverage entries the run read: every
	// satellite's row once for the starting supply, then one row per
	// satellite of each candidate move and of each accepted one.
	EntriesVisited int
}

// ErrShellStartInfeasible reports that the starting shells miss the target.
var ErrShellStartInfeasible = errors.New("baseline: starting shells miss availability target")

// MegaReduceShells runs the shrinker. It caches each satellite's coverage
// row so every candidate move is evaluated as a sparse delta rather than a
// full constellation re-simulation.
func MegaReduceShells(cfg ShellReduceConfig) (*ShellReduceResult, error) {
	if !(cfg.Epsilon > 0 && cfg.Epsilon <= 1) {
		return nil, fmt.Errorf("baseline: epsilon %v outside (0,1]", cfg.Epsilon)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	sup := cfg.Supply
	sup.fillDefaults()
	if n := sup.Slots * sup.Grid.NumCells(); len(cfg.Demand) != n {
		return nil, fmt.Errorf("baseline: demand length %d, want %d slots × %d cells", len(cfg.Demand), sup.Slots, sup.Grid.NumCells())
	}
	if err := texture.CheckDemand(cfg.Demand); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	// Expand shells, remembering (shell, plane) of every satellite.
	type satMeta struct{ shell, plane int }
	var sats []orbit.Elements
	var meta []satMeta
	for si, sh := range cfg.Shells {
		w := sh.Config
		els := w.Satellites()
		for k, e := range els {
			sats = append(sats, e)
			meta = append(meta, satMeta{shell: si, plane: k / w.SatsPerPlane})
		}
	}
	if len(sats) == 0 {
		return nil, errors.New("baseline: empty shell set")
	}

	// Per-satellite coverage rows.
	rows, table, err := perSatSupplyRows(sup, sats)
	if err != nil {
		return nil, err
	}
	res := &ShellReduceResult{}

	// Dense running supply and demand bookkeeping.
	supply := make([]float64, len(cfg.Demand))
	for _, r := range rows {
		texture.AddRow(supply, r, table, 1)
		res.EntriesVisited += len(r.Entries)
	}
	curSat, totalDemand := texture.Satisfied(supply, cfg.Demand)
	avail := func(sat float64) float64 {
		if totalDemand == 0 {
			return 1
		}
		return sat / totalDemand
	}
	if avail(curSat) < cfg.Epsilon {
		return nil, fmt.Errorf("%w: availability %.4f < %.4f", ErrShellStartInfeasible, avail(curSat), cfg.Epsilon)
	}

	alive := make([]bool, len(sats))
	for i := range alive {
		alive[i] = true
	}
	aliveCount := len(sats)

	// satisfiedAfterRemoval computes the satisfied demand if `group` were
	// removed, without mutating state. It sums over the indices in the order
	// the group first touches them, so the result is the same on every run.
	// A zero share can list an index twice; its second visit adds 0.
	delta := make([]float64, len(cfg.Demand))
	var touched []int32
	satisfiedAfterRemoval := func(group []int) float64 {
		// Aggregate the group's removal per index first (group members can
		// overlap in coverage).
		for _, s := range group {
			r := rows[s]
			ents := r.Entries
			for _, sg := range r.Segs {
				k, vals, n := int(sg.Col), sg.Values(table), sg.Len()
				for _, e := range ents[:n] {
					if k += e.Gap(); delta[k] == 0 {
						touched = append(touched, int32(k))
					}
					delta[k] += vals.Of(e)
				}
				ents = ents[n:]
			}
			res.EntriesVisited += len(r.Entries)
		}
		sat := curSat
		for _, idx := range touched {
			sat += texture.RemovalDelta(supply[idx], delta[idx], cfg.Demand[idx])
			delta[idx] = 0
		}
		touched = touched[:0]
		return sat
	}
	remove := func(group []int) {
		for _, s := range group {
			if !alive[s] {
				continue
			}
			alive[s] = false
			aliveCount--
			texture.AddRow(supply, rows[s], table, -1)
			res.EntriesVisited += len(rows[s].Entries)
		}
		curSat, _ = texture.Satisfied(supply, cfg.Demand)
	}
	// planes[first[si]+p] lists the satellites of shell si's plane p in
	// index order; planeMembers drops the removed ones from it as it goes.
	first := make([]int, len(cfg.Shells)+1)
	for si, sh := range cfg.Shells {
		first[si+1] = first[si] + sh.Config.Planes
	}
	planes := make([][]int, first[len(cfg.Shells)])
	for s, m := range meta {
		k := first[m.shell] + m.plane
		planes[k] = append(planes[k], s)
	}
	// planeMembers returns the alive satellites of shell si's plane p. The
	// slice is valid until the next remove.
	planeMembers := func(si, p int) []int {
		k := first[si] + p
		g := planes[k][:0]
		for _, s := range planes[k] {
			if alive[s] {
				g = append(g, s)
			}
		}
		planes[k] = g
		return g
	}

	// Phase 1: remove whole planes while feasible.
	for res.Steps < maxSteps {
		bestSat, bestSize := -1.0, 0
		var bestGroup []int
		for si, sh := range cfg.Shells {
			for p := 0; p < sh.Config.Planes; p++ {
				g := planeMembers(si, p)
				if len(g) == 0 {
					continue
				}
				if s := satisfiedAfterRemoval(g); avail(s) >= cfg.Epsilon {
					// Prefer the biggest removable plane; tie-break by the
					// least availability damage.
					if len(g) > bestSize || (len(g) == bestSize && s > bestSat) {
						bestSat, bestSize, bestGroup = s, len(g), g
					}
				}
			}
		}
		if bestGroup == nil {
			break
		}
		remove(bestGroup)
		res.Steps++
		if cfg.OnStep != nil {
			cfg.OnStep(len(bestGroup), avail(curSat))
		}
	}
	// Phase 2: thin whole shells one satellite-per-plane at a time (remove
	// the last slot of every remaining plane of a shell), which keeps the
	// layout uniform — MegaReduce's defining constraint. Finer-grained
	// single-satellite removal would produce a *non-uniform* constellation
	// and is exactly what MegaReduce cannot do.
	for res.Steps < maxSteps {
		bestSat, bestShell := -1.0, -1
		var bestGroup []int
		for si, sh := range cfg.Shells {
			// One satellite from every remaining plane: the highest alive
			// in-plane slot index of each plane of shell si.
			var group []int
			for p := 0; p < sh.Config.Planes; p++ {
				gm := planeMembers(si, p)
				if len(gm) > 1 { // keep at least one satellite per plane
					group = append(group, gm[len(gm)-1])
				}
			}
			if len(group) == 0 {
				continue
			}
			if sv := satisfiedAfterRemoval(group); avail(sv) >= cfg.Epsilon && sv > bestSat {
				bestSat, bestShell, bestGroup = sv, si, group
			}
		}
		if bestShell < 0 {
			break
		}
		remove(bestGroup)
		res.Steps++
		if cfg.OnStep != nil {
			cfg.OnStep(len(bestGroup), avail(curSat))
		}
	}

	res.Satellites = aliveCount
	res.Removed = len(sats) - aliveCount
	res.Availability = avail(curSat)
	res.PerShell = make([]int, len(cfg.Shells))
	for s, m := range meta {
		if alive[s] {
			res.PerShell[m.shell]++
			res.Remaining = append(res.Remaining, sats[s])
		}
	}
	return res, nil
}

// perSatSupplyRows packs each satellite's coverage into a row as the texture
// library does, and returns the rows with the value table they index: entry
// total·S + hits − 1 is cfg.share(hits, total), in either CountSatellites
// mode. Each row is appended to one reused scratch row and copied out at its
// exact size, so the only garbage is the scratch.
func perSatSupplyRows(cfg SupplyConfig, sats []orbit.Elements) ([]texture.Row, []float64, error) {
	if cfg.SubSamples > texture.MaxSubSamples {
		return nil, nil, fmt.Errorf("baseline: %d sub-samples a slot, a packed row counts at most %d", cfg.SubSamples, texture.MaxSubSamples)
	}
	ras, lam := cfg.newRasterizer(), cfg.footprintRadii(sats)
	rows := make([]texture.Row, len(sats))
	var scratch texture.Row
	top := 0
	for si, el := range sats {
		var t int
		scratch, t = texture.AppendRow(texture.Row{Segs: scratch.Segs[:0], Entries: scratch.Entries[:0]}, ras, el, lam[si], cfg.Slots)
		top = max(top, t)
		rows[si] = texture.Row{Segs: slices.Clone(scratch.Segs), Entries: slices.Clone(scratch.Entries)}
	}
	if top > texture.MaxBase {
		return nil, nil, fmt.Errorf("baseline: segment base %d does not fit a packed row's %d", top, texture.MaxBase)
	}
	return rows, texture.ValueTable(top, cfg.SubSamples, cfg.share), nil
}
