package mpc

import "repro/internal/orbit"

// DeltaLifeTable hands the external tests the DeltaCompile chain's τ
// table as the last slot left it. The caller must not overlap it with a
// DeltaCompile.
func (c *Controller) DeltaLifeTable() *orbit.LifeTable {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	return &c.delta.life
}
