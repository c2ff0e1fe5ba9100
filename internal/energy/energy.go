// Package energy estimates the energy consequences of cluster disabling,
// quantifying §4.2's observation: "on average, 8.3 of the 16 clusters were
// disabled at any time ... this produces a great savings in leakage energy,
// provided the supply voltage to these unused clusters can be turned off."
//
// The paper reports no absolute energy numbers, so the model is a
// first-order architectural estimator in normalized units (one unit = one
// cluster-cycle of leakage at full supply). It separates:
//
//   - static (leakage) energy, proportional to powered cluster-cycles —
//     the component cluster disabling recovers;
//   - dynamic energy, proportional to committed instructions plus
//     communication activity (network hops and cache accesses), which
//     reconfiguration largely does not change;
//   - always-on front-end/L2 overhead, proportional to cycles.
//
// The defaults follow the common early-2000s architectural assumption that
// leakage approaches half of total chip power at 0.035µ-class technologies
// (the regime the paper targets).
package energy

import "clustersim/internal/pipeline"

// Model holds the energy-model coefficients.
type Model struct {
	// LeakagePerClusterCycle is the static energy per powered cluster
	// per cycle.
	LeakagePerClusterCycle float64
	// SharedPerCycle is the always-on (front-end, L2, clock) energy per
	// cycle, expressed in cluster-leakage units.
	SharedPerCycle float64
	// DynamicPerInstr is the switching energy per committed instruction.
	DynamicPerInstr float64
	// DynamicPerHop is the switching energy per interconnect link
	// traversal.
	DynamicPerHop float64
	// DynamicPerCacheAccess is the switching energy per L1 access.
	DynamicPerCacheAccess float64
}

// DefaultModel returns the normalized default coefficients: leakage per
// cluster-cycle is the unit; the shared core leaks like four clusters; a
// committed instruction switches about what two cluster-cycles leak; a hop
// and a cache access cost a quarter of that.
func DefaultModel() Model {
	return Model{
		LeakagePerClusterCycle: 1.0,
		SharedPerCycle:         4.0,
		DynamicPerInstr:        2.0,
		DynamicPerHop:          0.5,
		DynamicPerCacheAccess:  0.5,
	}
}

// Activity is the subset of run statistics the estimator consumes.
type Activity struct {
	// Cycles and Instructions are the run totals.
	Cycles       uint64
	Instructions uint64
	// PoweredClusterCycles is the per-cycle sum of powered clusters
	// (pipeline.Result.ActiveSum when disabled clusters are gated,
	// Cycles*TotalClusters when they are not).
	PoweredClusterCycles uint64
	// Hops is the total interconnect link traversals.
	Hops uint64
	// CacheAccesses is the total L1 accesses.
	CacheAccesses uint64
}

// ActivityOf extracts a run's energy-relevant activity. The powered-cluster
// count assumes disabled clusters are voltage-gated.
func ActivityOf(r pipeline.Result) Activity {
	return Activity{
		Cycles:               r.Cycles,
		Instructions:         r.Instructions,
		PoweredClusterCycles: r.ActiveSum,
		Hops:                 r.Net.Hops,
		CacheAccesses:        r.Mem.Loads + r.Mem.Stores,
	}
}

// Breakdown is an energy estimate in normalized units.
type Breakdown struct {
	Leakage float64
	Shared  float64
	Dynamic float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Leakage + b.Shared + b.Dynamic }

// EnergyPerInstruction returns total energy divided by instructions.
func (b Breakdown) EnergyPerInstruction(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return b.Total() / float64(instructions)
}

// Estimate computes the energy breakdown of a run.
func (m Model) Estimate(a Activity) Breakdown {
	return Breakdown{
		Leakage: m.LeakagePerClusterCycle * float64(a.PoweredClusterCycles),
		Shared:  m.SharedPerCycle * float64(a.Cycles),
		Dynamic: m.DynamicPerInstr*float64(a.Instructions) +
			m.DynamicPerHop*float64(a.Hops) +
			m.DynamicPerCacheAccess*float64(a.CacheAccesses),
	}
}

// LeakageSavings returns the fractional leakage-energy saving of gating the
// unpowered clusters versus keeping all totalClusters powered for the run.
func (m Model) LeakageSavings(a Activity, totalClusters int) float64 {
	full := float64(a.Cycles) * float64(totalClusters)
	if full == 0 {
		return 0
	}
	return 1 - float64(a.PoweredClusterCycles)/full
}

// EDP returns the energy-delay product (normalized energy x cycles), the
// metric under which both the 11% speedup and the leakage saving of
// adaptive reconfiguration compound.
func (m Model) EDP(a Activity) float64 {
	return m.Estimate(a).Total() * float64(a.Cycles)
}
