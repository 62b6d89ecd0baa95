package main

import (
	"errors"
	"fmt"
	"math"

	"avfs/api"
	"avfs/internal/claims"
	"avfs/internal/experiments"
)

// The checks below compare the program's outputs with properties the
// method must have (determinism, conservation, optimality) or with the
// paper's published figures. None compares with a stored copy of output.

// energyTol is the relative energy tolerance of the determinism
// contracts (batched and coalesced stepping reorder float sums).
const energyTol = 1e-9

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// checkRun verifies one run result: simulated time is exactly ticks
// times the tick length, energy never decreases, and no voltage
// emergency occurred.
func checkRun(r api.RunResult, tick, prevEnergy float64) error {
	if want := float64(r.Ticks) * tick; relDiff(want, r.Now) > 1e-12 {
		return fmt.Errorf("now %.9g s is not ticks %d x tick %g s = %.9g s", r.Now, r.Ticks, tick, want)
	}
	if r.EnergyJ < prevEnergy {
		return fmt.Errorf("energy fell from %.9g J to %.9g J", prevEnergy, r.EnergyJ)
	}
	if r.Emergencies != 0 {
		return fmt.Errorf("%d voltage emergencies", r.Emergencies)
	}
	return nil
}

// sameSession verifies two sessions advanced the same way from the same
// state ended alike: equal integers, energy within energyTol.
func sameSession(a, b api.Session) error {
	type ints struct{ ticks, running, pending, done, mv, vmin, emerg, pmds int }
	ia := ints{int(a.Ticks), a.Running, a.Pending, a.Done, a.VoltageMV, a.RequiredVminMV, a.Emergencies, a.UtilizedPMDs}
	ib := ints{int(b.Ticks), b.Running, b.Pending, b.Done, b.VoltageMV, b.RequiredVminMV, b.Emergencies, b.UtilizedPMDs}
	if ia != ib {
		return fmt.Errorf("integer state differs: %+v vs %+v", ia, ib)
	}
	if a.Now != b.Now {
		return fmt.Errorf("now differs: %.9g vs %.9g", a.Now, b.Now)
	}
	if d := relDiff(a.EnergyJ, b.EnergyJ); d > energyTol {
		return fmt.Errorf("energy differs by %.3g relative: %.12g vs %.12g", d, a.EnergyJ, b.EnergyJ)
	}
	return nil
}

// checkWhatIf verifies a what-if report: every branch succeeded without
// emergencies and best_energy names the lowest-energy branch (ties go
// to the first listed).
func checkWhatIf(rep api.WhatIfReport, want int) error {
	if len(rep.Branches) != want {
		return fmt.Errorf("%d branches, want %d", len(rep.Branches), want)
	}
	best := -1
	for i, br := range rep.Branches {
		if br.Error != nil {
			return fmt.Errorf("branch %s failed: %s", br.Name, br.Error.Message)
		}
		if br.Emergencies != 0 {
			return fmt.Errorf("branch %s: %d emergencies", br.Name, br.Emergencies)
		}
		if best < 0 || br.EnergyJ < rep.Branches[best].EnergyJ {
			best = i
		}
	}
	if rep.BestEnergy != rep.Branches[best].Name {
		return fmt.Errorf("best_energy is %q but %q spent least (%.6g J)",
			rep.BestEnergy, rep.Branches[best].Name, rep.Branches[best].EnergyJ)
	}
	return nil
}

// errEmergencies is the failure of a whatif_fault operation: its branch
// reported voltage emergencies.
var errEmergencies = errors.New("voltage emergencies")

// checkFaultBranch checks the one-branch what-if of the known fault: it
// fails with errEmergencies while the branch reports emergencies, and
// with another error if the branch failed outright.
func checkFaultBranch(rep api.WhatIfReport) error {
	if len(rep.Branches) != 1 {
		return fmt.Errorf("%d branches, want 1", len(rep.Branches))
	}
	br := rep.Branches[0]
	if br.Error != nil {
		return fmt.Errorf("branch %s failed: %s", br.Name, br.Error.Message)
	}
	if br.Emergencies != 0 {
		return fmt.Errorf("branch %s: %w: %d", br.Name, errEmergencies, br.Emergencies)
	}
	return nil
}

// sameBranches verifies two reports of the same what-if agree branch by
// branch (batched against solo advancement).
func sameBranches(a, b api.WhatIfReport) error {
	if len(a.Branches) != len(b.Branches) {
		return fmt.Errorf("%d vs %d branches", len(a.Branches), len(b.Branches))
	}
	for i := range a.Branches {
		x, y := a.Branches[i], b.Branches[i]
		if x.Name != y.Name || x.Ticks != y.Ticks || x.Completed != y.Completed ||
			x.Running != y.Running || x.Pending != y.Pending || x.VoltageMV != y.VoltageMV ||
			x.Emergencies != y.Emergencies || x.Now != y.Now {
			return fmt.Errorf("branch %s differs: %+v vs %+v", x.Name, x, y)
		}
		if d := relDiff(x.EnergyJ, y.EnergyJ); d > energyTol {
			return fmt.Errorf("branch %s energy differs by %.3g relative", x.Name, d)
		}
	}
	if a.BestEnergy != b.BestEnergy {
		return fmt.Errorf("best_energy %q vs %q", a.BestEnergy, b.BestEnergy)
	}
	return nil
}

// checkControl verifies a what-if's control branch (no overrides) against
// a fork of the same snapshot advanced alone by the same window.
func checkControl(ctl api.WhatIfBranch, snap api.Snapshot, fork api.Session) error {
	if ctl.Ticks != fork.Ticks || ctl.Now != fork.Now || ctl.Running != fork.Running ||
		ctl.Pending != fork.Pending || ctl.VoltageMV != fork.VoltageMV {
		return fmt.Errorf("control branch (ticks %d, running %d, pending %d, %d mV) != fork (ticks %d, running %d, pending %d, %d mV)",
			ctl.Ticks, ctl.Running, ctl.Pending, ctl.VoltageMV, fork.Ticks, fork.Running, fork.Pending, fork.VoltageMV)
	}
	if d := relDiff(ctl.EnergyJ, fork.EnergyJ-snap.EnergyJ); d > energyTol {
		return fmt.Errorf("control branch energy %.12g J vs fork %.12g J (%.3g relative)",
			ctl.EnergyJ, fork.EnergyJ-snap.EnergyJ, d)
	}
	return nil
}

// checkSearch verifies an energy-optimal search answer is no worse than
// any point of the grid it searched.
func checkSearch(best api.Estimate, grid []api.Estimate) error {
	if len(grid) == 0 {
		return fmt.Errorf("empty grid")
	}
	for _, p := range grid {
		if best.EnergyJ > p.EnergyJ*(1+1e-12) {
			return fmt.Errorf("search chose %.6g J but %s %d MHz x%d %s costs %.6g J",
				best.EnergyJ, p.Benchmark, p.FreqMHz, p.Threads, p.Placement, p.EnergyJ)
		}
	}
	return nil
}

// checkSafeVmin verifies a characterization found a safe Vmin at which
// the Vmin failure model (computed apart from the sweep) never fails.
func checkSafeVmin(found bool, safeMV int, pfail float64) error {
	if !found {
		return fmt.Errorf("no safe Vmin found")
	}
	if pfail != 0 {
		return fmt.Errorf("failure probability %.3g at the reported safe Vmin %d mV", pfail, safeMV)
	}
	return nil
}

// checkFinished verifies a session ran every submitted process to its end.
func checkFinished(s api.Session, submitted int) error {
	if s.Running != 0 || s.Pending != 0 || s.Done != submitted {
		return fmt.Errorf("session %s: %d running, %d pending, %d of %d finished",
			s.ID, s.Running, s.Pending, s.Done, submitted)
	}
	return nil
}

// checkClaims verifies every paper claim passed against the paper's figures.
func checkClaims(rs []claims.Result) error {
	if len(rs) != 18 {
		return fmt.Errorf("%d claims verified, want 18", len(rs))
	}
	for _, r := range rs {
		if !r.OK {
			return fmt.Errorf("claim %s failed: paper %s, measured %s", r.Claim.ID, r.Claim.Paper, r.Measured)
		}
	}
	return nil
}

// checkTableIV verifies one Table IV replay: Optimal spends less energy
// than Baseline and no configuration had a voltage emergency.
func checkTableIV(res map[experiments.SystemConfig]experiments.EvalResult) error {
	for cfg, r := range res {
		if r.Emergencies != 0 {
			return fmt.Errorf("%v: %d emergencies", cfg, r.Emergencies)
		}
	}
	opt, okO := res[experiments.Optimal]
	base, okB := res[experiments.Baseline]
	if !okO || !okB {
		return fmt.Errorf("missing Optimal or Baseline result")
	}
	if opt.EnergyJ >= base.EnergyJ {
		return fmt.Errorf("Optimal %.6g J is not below Baseline %.6g J", opt.EnergyJ, base.EnergyJ)
	}
	return nil
}
