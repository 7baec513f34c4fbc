package chip

import (
	"fmt"

	"parm/internal/pdn"
)

// PSNSample is one chip-wide PSN measurement: the result of transient
// simulation of every active domain at a sampling instant (paper §5.1:
// PSN is sampled at periodic intervals and at application map/unmap
// events).
type PSNSample struct {
	// TilePeak is the peak PSN fraction observed at each tile during the
	// sampling window (0 for tiles in inactive domains).
	TilePeak []float64
	// TileAvg is the time-averaged PSN fraction per tile.
	TileAvg []float64
	// DomainPeak and DomainAvg summarize each domain (0 when inactive).
	DomainPeak []float64
	DomainAvg  []float64
}

// ChipPeak returns the largest per-tile peak PSN in the sample.
func (s *PSNSample) ChipPeak() float64 {
	m := 0.0
	for _, v := range s.TilePeak {
		if v > m {
			m = v
		}
	}
	return m
}

// ActiveAvg returns the mean of per-domain average PSN over active domains
// (domains with a nonzero average). It returns 0 when nothing is active.
func (s *PSNSample) ActiveAvg() float64 {
	sum, n := 0.0, 0
	for _, v := range s.DomainAvg {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SamplePSN transient-simulates every active domain and returns the chip's
// PSN sample. routerUtil gives the measured NoC router utilization per tile
// in [0,1] (flits forwarded per cycle, normalized); it may be nil when no
// traffic information is available. Same-class tasks of the app owning a
// domain are phase-staggered (see pdn.BuildLoads).
//
// Domains are solved one after another in domain order; repeated load
// signatures are served from the chip's solve cache (see pdn.Solver). The
// sample is bit-identical with the cache on or off.
func (c *Chip) SamplePSN(routerUtil []float64) (*PSNSample, error) {
	if routerUtil != nil && len(routerUtil) != c.Mesh.NumTiles() {
		return nil, fmt.Errorf("chip: routerUtil length %d, want %d", len(routerUtil), c.Mesh.NumTiles())
	}
	s := &PSNSample{
		TilePeak:   make([]float64, c.Mesh.NumTiles()),
		TileAvg:    make([]float64, c.Mesh.NumTiles()),
		DomainPeak: make([]float64, len(c.domains)),
		DomainAvg:  make([]float64, len(c.domains)),
	}
	active := 0
	for i := range c.domains {
		d := &c.domains[i]
		if !d.Occupied() {
			continue
		}
		active++
		var occ [pdn.DomainTiles]pdn.TileOccupant
		for slot, t := range d.Tiles {
			o := c.occupants[t]
			if o.App == NoApp {
				continue
			}
			ru := 0.0
			if routerUtil != nil {
				// routerUtil is per-port utilization (flits/cycle/port); a
				// router's switching activity saturates around 2-2.5
				// concurrent traversals, so scale accordingly for power.
				ru = routerUtil[t] * 2.5
				if ru > 1 {
					ru = 1
				}
			}
			occ[slot] = pdn.TileOccupant{
				IAvg:      c.Node.TileCurrent(d.Vdd, o.CoreActivity, ru),
				Class:     o.Class,
				Staggered: true, // same-app threads are barrier-synchronized
			}
		}
		cfg := pdn.Config{Params: c.Node, Vdd: d.Vdd}
		res, err := c.solver.SimulateDomain(cfg, pdn.BuildLoads(occ))
		if err != nil {
			return nil, fmt.Errorf("chip: domain %d: %w", i, err)
		}
		s.DomainPeak[i] = res.DomainPeak()
		s.DomainAvg[i] = res.DomainAvg()
		for slot, t := range d.Tiles {
			s.TilePeak[t] = res.PeakPSN[slot]
			s.TileAvg[t] = res.AvgPSN[slot]
		}
	}
	if active > 0 {
		c.obsSamples.Inc()
		c.obsDomainSolves.Add(uint64(active))
		c.obsActiveDomains.Observe(float64(active))
	}
	return s, nil
}

// PSNCacheStats reports the chip's domain-solve cache counters (hits,
// misses, overflow clears/evictions) and entry count. All zeros when the
// chip has no cache.
func (c *Chip) PSNCacheStats() pdn.CacheStats {
	if c.solveCache == nil {
		return pdn.CacheStats{}
	}
	return c.solveCache.Stats()
}
