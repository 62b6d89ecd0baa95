package main

import (
	"context"
	"errors"
	"testing"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/claims"
	"avfs/internal/experiments"
	"avfs/internal/service"
	"avfs/internal/wlgen"
)

// Each check is fed the program's real output, which must pass, and a
// tampered copy, which must fail: a check can then neither pass on
// anything nor fail on correct output.

func newFleet(t *testing.T) *service.Fleet {
	t.Helper()
	f := service.New(service.Config{ReapEvery: -1})
	t.Cleanup(f.Close)
	return f
}

// loaded opens a session with a few programs and runs it a while.
func loaded(t *testing.T, f *service.Fleet, policy string) (api.Session, api.RunResult) {
	t.Helper()
	s, err := f.Create(api.CreateSessionRequest{Model: "xgene3", Policy: policy, TickSeconds: tick})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []api.SubmitRequest{{Benchmark: "CG", Threads: 4}, {Benchmark: "mcf", Threads: 1}, {Benchmark: "EP", Threads: 2}} {
		if _, err := f.Submit(s.ID, p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func mustPass(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: real output rejected: %v", what, err)
	}
}

func mustFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: tampered output accepted", what)
	}
}

func TestCheckRun(t *testing.T) {
	f := newFleet(t)
	for _, policy := range policies {
		_, res := loaded(t, f, policy)
		mustPass(t, policy, checkRun(res, tick, 0))

		off := res
		off.Ticks++
		mustFail(t, "tick off by one", checkRun(off, tick, 0))
		mustFail(t, "energy fell", checkRun(res, tick, res.EnergyJ*1.001))
		em := res
		em.Emergencies = 1
		mustFail(t, "emergency", checkRun(em, tick, 0))
	}
}

func TestSameSession(t *testing.T) {
	f := newFleet(t)
	s, _ := loaded(t, f, "optimal")
	fk, err := f.Fork(s.ID, api.ForkRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{s.ID, fk.Session.ID} {
		if _, err := f.RunSync(ctx, id, api.RunRequest{Seconds: 4}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := f.Get(s.ID)
	b, _ := f.Get(fk.Session.ID)
	mustPass(t, "fork advanced like its parent", sameSession(a, b))

	e := b
	e.EnergyJ *= 1 + 1e-8
	mustFail(t, "energy perturbed", sameSession(a, e))
	tk := b
	tk.Ticks++
	mustFail(t, "tick off by one", sameSession(a, tk))
}

func TestWhatIfChecks(t *testing.T) {
	f := newFleet(t)
	s, _ := loaded(t, f, "baseline")
	snap, err := f.Snapshot(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := api.WhatIfRequest{SnapshotID: snap.ID, Seconds: 5, Branches: fanoutBranches}
	rep, err := f.WhatIf(ctx, s.ID, req)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, "what-if", checkWhatIf(rep, len(fanoutBranches)))

	swapped := rep
	swapped.Branches = append([]api.WhatIfBranch(nil), rep.Branches...)
	for i, br := range swapped.Branches {
		if br.Name != rep.BestEnergy {
			swapped.BestEnergy = swapped.Branches[i].Name
			break
		}
	}
	mustFail(t, "swapped best_energy", checkWhatIf(swapped, len(fanoutBranches)))
	em := rep
	em.Branches = append([]api.WhatIfBranch(nil), rep.Branches...)
	em.Branches[2].Emergencies = 1
	mustFail(t, "branch emergency", checkWhatIf(em, len(fanoutBranches)))

	req.Solo = true
	solo, err := f.WhatIf(ctx, s.ID, req)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, "batched vs solo", sameBranches(rep, solo))
	pert := solo
	pert.Branches = append([]api.WhatIfBranch(nil), solo.Branches...)
	pert.Branches[1].EnergyJ *= 1 + 1e-8
	mustFail(t, "branch energy perturbed", sameBranches(rep, pert))

	fk, err := f.Fork(s.ID, api.ForkRequest{SnapshotID: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunSync(ctx, fk.Session.ID, api.RunRequest{Seconds: 5}); err != nil {
		t.Fatal(err)
	}
	child, _ := f.Get(fk.Session.ID)
	mustPass(t, "control branch vs fork", checkControl(rep.Branches[0], snap, child))
	off := rep.Branches[0]
	off.Ticks++
	mustFail(t, "control tick off by one", checkControl(off, snap, child))
	off = rep.Branches[0]
	off.EnergyJ *= 1 + 1e-8
	mustFail(t, "control energy perturbed", checkControl(off, snap, child))
}

// TestCheckFaultBranch feeds the known-fault check the branch
// whatif-fanout asks on its X-Gene 3 session under the optimal policy.
// The check must call it failed exactly when the branch reports
// emergencies, so it holds both while the fault stands and once it is
// mended.
func TestCheckFaultBranch(t *testing.T) {
	f := newFleet(t)
	load := fanoutLoads[3]
	s, err := f.Create(api.CreateSessionRequest{Model: "xgene3", Policy: "optimal", TickSeconds: tick})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range load[:4] {
		if _, err := f.Submit(s.ID, p); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 5}); err != nil {
		t.Fatal(err)
	}
	rep, err := f.WhatIf(ctx, s.ID, api.WhatIfRequest{Seconds: fanoutWindow, Branches: []api.WhatIfBranchSpec{faultBranch}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s branch: %d emergencies", faultBranch.Name, rep.Branches[0].Emergencies)
	err = checkFaultBranch(rep)
	if got, want := errors.Is(err, errEmergencies), rep.Branches[0].Emergencies > 0; got != want {
		t.Fatalf("real output: check says fault %v (%v), branch has %d emergencies", got, err, rep.Branches[0].Emergencies)
	}

	clean := rep
	clean.Branches = append([]api.WhatIfBranch(nil), rep.Branches...)
	clean.Branches[0].Emergencies = 0
	mustPass(t, "clean branch", checkFaultBranch(clean))
	em := clean
	em.Branches = append([]api.WhatIfBranch(nil), clean.Branches...)
	em.Branches[0].Emergencies = 1
	if err := checkFaultBranch(em); !errors.Is(err, errEmergencies) {
		t.Fatalf("one emergency: got %v, want the known fault", err)
	}
	broken := clean
	broken.Branches = append([]api.WhatIfBranch(nil), clean.Branches...)
	broken.Branches[0].Error = &api.Error{Message: "tampered"}
	if err := checkFaultBranch(broken); err == nil || errors.Is(err, errEmergencies) {
		t.Fatalf("failed branch: got %v, want a failure other than the known fault", err)
	}
}

func TestCheckSearch(t *testing.T) {
	f := newFleet(t)
	spec := chip.XGene3Spec()
	q := api.EstimateRequest{Model: "xgene3", Benchmark: "CG", Threads: 4}
	best := q
	best.Search = "energy"
	b, err := f.Estimate(best)
	if err != nil {
		t.Fatal(err)
	}
	var grid []api.Estimate
	for fr := spec.FreqStep; fr <= spec.MaxFreq; fr += spec.FreqStep {
		for _, pl := range []string{"clustered", "spreaded"} {
			for _, v := range []string{"nominal", "safe-vmin"} {
				p := q
				p.FreqMHz, p.Placement, p.Voltage = int(fr), pl, v
				e, err := f.Estimate(p)
				if err != nil {
					t.Fatal(err)
				}
				grid = append(grid, e)
			}
		}
	}
	mustPass(t, "search", checkSearch(b, grid))
	worse := b
	worse.EnergyJ = grid[len(grid)-1].EnergyJ * 1.01
	mustFail(t, "search worse than a grid point", checkSearch(worse, grid))
}

func TestCheckSafeVmin(t *testing.T) {
	f := newFleet(t)
	s, _ := loaded(t, f, "optimal")
	cz, err := f.Characterize(s.ID, charReqs[0])
	if err != nil {
		t.Fatal(err)
	}
	pfail, err := modelPFail(cz)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, "characterization", checkSafeVmin(cz.SafeFound, cz.SafeVminMV, pfail))

	low := cz
	low.SafeVminMV -= 20
	pLow, err := modelPFail(low)
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, "safe Vmin reported too low", checkSafeVmin(low.SafeFound, low.SafeVminMV, pLow))
	mustFail(t, "no safe Vmin", checkSafeVmin(false, cz.SafeVminMV, pfail))
}

func TestCheckFinished(t *testing.T) {
	f := newFleet(t)
	s, _ := loaded(t, f, "placement")
	if _, err := f.RunSync(context.Background(), s.ID, api.RunRequest{Seconds: idleBudget, UntilIdle: true}); err != nil {
		t.Fatal(err)
	}
	end, _ := f.Get(s.ID)
	mustPass(t, "finished", checkFinished(end, 3))
	mustFail(t, "one process missing", checkFinished(end, 4))
}

func TestCheckClaims(t *testing.T) {
	rs := claims.Verify(claims.Fast())
	mustPass(t, "claims", checkClaims(rs))
	bad := append([]claims.Result(nil), rs...)
	bad[5].OK = false
	mustFail(t, "failed claim", checkClaims(bad))
	mustFail(t, "missing claim", checkClaims(rs[1:]))
}

func TestCheckTableIV(t *testing.T) {
	spec := chip.XGene2Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, 3)
	set, err := experiments.EvaluateAll(spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, "Table IV", checkTableIV(set.Results))

	swapped := map[experiments.SystemConfig]experiments.EvalResult{}
	for k, v := range set.Results {
		swapped[k] = v
	}
	swapped[experiments.Optimal], swapped[experiments.Baseline] = set.Results[experiments.Baseline], set.Results[experiments.Optimal]
	mustFail(t, "Optimal above Baseline", checkTableIV(swapped))
	em := map[experiments.SystemConfig]experiments.EvalResult{}
	for k, v := range set.Results {
		em[k] = v
	}
	r := em[experiments.SafeVmin]
	r.Emergencies = 2
	em[experiments.SafeVmin] = r
	mustFail(t, "emergency", checkTableIV(em))
}

func TestPromSum(t *testing.T) {
	text := "# TYPE a_total counter\na_total 3\na_total{node=\"n1\"} 4.5\na_total_other 100\nb 1\n"
	if got := promSum(text, "a_total"); got != 7.5 {
		t.Fatalf("promSum = %v, want 7.5", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}
