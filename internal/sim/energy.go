package sim

// Energy accounting. The paper motivates data-center scheduling partly by
// server energy ("the total energy used by the servers is estimated to
// approach 3% of US electricity consumption", Sec. 2.2) and cites
// power-aware consolidation (pSciMapper) as the closest related system.
// The simulator therefore integrates a standard linear server power model:
//
//	P(machine) = P_idle + (P_peak − P_idle) · utilization        (while on)
//	P(machine) = P_off                                           (no tasks)
//
// Utilization comes from the measured interference table (guest CPU plus
// attributable Dom0 work per co-location), so pairing decisions change the
// energy bill — finishing the same work in fewer machine-seconds is how an
// interference-aware scheduler saves energy.

// PowerModel parameterizes per-machine power draw in watts.
type PowerModel struct {
	// OffW is drawn by a machine with no running tasks (deep sleep).
	OffW float64
	// IdleW is drawn by a powered-on machine at zero utilization.
	IdleW float64
	// PeakW is drawn at full utilization.
	PeakW float64
}

// DefaultPower matches the class of servers in the paper's testbed era:
// ≈10 W asleep, ≈160 W idle, ≈250 W at peak.
func DefaultPower() PowerModel {
	return PowerModel{OffW: 10, IdleW: 160, PeakW: 250}
}

// watts returns the draw of a machine at the given total utilization
// (0 = no tasks = asleep).
func (p PowerModel) watts(active bool, util float64) float64 {
	if !active {
		return p.OffW
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return p.IdleW + (p.PeakW-p.IdleW)*util
}

// machinePower computes the current draw of machine m from its occupancy.
func (e *Engine) machinePower(m int) float64 {
	ms := &e.machines[m]
	active := false
	util := 0.0
	for s, rt := range ms.slots {
		if rt == nil {
			continue
		}
		active = true
		nb := 0
		if other := ms.slots[1-s]; other != nil {
			nb = other.app
		}
		util += e.table.util[rt.app*e.table.n+nb]
	}
	// Two VMs share the guest core; utilization saturates at 1 per core
	// plus Dom0 — watts() clamps.
	return e.cfg.Power.watts(active, util/2)
}

// settleEnergy integrates machine m's energy up to the current time and
// re-samples its power. Must be called on every membership change, before
// the change is applied... it is invoked from settle(), which the engine
// already calls at exactly those points.
func (e *Engine) settleEnergy(m int) {
	ms := &e.machines[m]
	dt := e.now - ms.lastEnergyAt
	if dt > 0 {
		e.results.EnergyJ += dt * ms.powerW
		ms.lastEnergyAt = e.now
	}
	ms.powerW = e.machinePower(m)
}

// flushEnergy integrates every machine to the horizon at the end of a run.
func (e *Engine) flushEnergy(until float64) {
	for m := range e.machines {
		ms := &e.machines[m]
		dt := until - ms.lastEnergyAt
		if dt > 0 {
			e.results.EnergyJ += dt * ms.powerW
			ms.lastEnergyAt = until
		}
	}
}

// EnergyKWh converts the run's integrated energy to kilowatt-hours.
func (r *Results) EnergyKWh() float64 { return r.EnergyJ / 3.6e6 }

// EnergyPerTaskKJ is the energy bill per completed task in kilojoules.
func (r *Results) EnergyPerTaskKJ() float64 {
	if r.CompletedCount == 0 {
		return 0
	}
	return r.EnergyJ / float64(r.CompletedCount) / 1000
}
