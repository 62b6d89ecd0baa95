package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"avfs/api"
	"avfs/internal/service"
)

// whatifFanout compares few sessions against eight hypothetical futures
// each, over long windows, and advances a fork of every branch point
// like its parent. Branches start bit-identical, so batched folding, the
// steady-segment memo and snapshot restore do most of the work.
type whatifFanout struct {
	r *rig
	// sessions[c] are client c's sessions; feeds[c][k][i] is what session
	// k gets submitted at branch point i.
	sessions [2][]sessSpec
	feeds    [2][][][]api.SubmitRequest
	// branches are fanoutBranches with the control branch first and the
	// others in seeded order.
	branches []api.WhatIfBranchSpec
	// first is the first round's first report per session, which every
	// later round and the solo re-play of finish must match.
	mu    sync.Mutex
	first map[[2]int]*api.WhatIfReport
}

// fanoutBranches are the eight futures: the unchanged control branch,
// the four Table IV policies, two placement overrides and a power cap.
var fanoutBranches = []api.WhatIfBranchSpec{
	{Name: "control"},
	{Policy: "baseline"}, {Policy: "safe-vmin"}, {Policy: "placement"}, {Policy: "optimal"},
	{Name: "placement-spreaded", Policy: "placement", Placement: "spreaded"},
	{Name: "baseline-clustered", Policy: "baseline", Placement: "clustered"},
	{Name: "optimal-capped", Policy: "optimal", PowerCapW: fanoutCapW},
}

// faultBranch is the what-if branch of the known fault: from a snapshot
// whose daemon already runs the optimal policy, the placement override
// re-places threads onto more PMDs without the daemon's fail-safe
// voltage raise, so the branch runs below its safe Vmin and reports
// voltage emergencies (on the optimal-policy session's first branch
// point; the other branch points report none). It is asked as an
// operation of its own (kind whatif_fault) at every branch point, so the
// fault fails that one operation and the eight-branch what-if stays a
// correct answer.
var faultBranch = api.WhatIfBranchSpec{Name: "optimal-spreaded", Policy: "optimal", Placement: "spreaded"}

const (
	// fanoutRepeats is how many branch points each session visits.
	fanoutRepeats = 3
	// fanoutWindow is each what-if's window and the parent's step
	// between branch points (simulated seconds).
	fanoutWindow = 30
	// fanoutCapW is the optimal-capped branch's socket power budget.
	fanoutCapW = 12
)

// fanoutLoads are the four sessions' programs: the first four load the
// session at birth, the rest arrive two at each later branch point.
// Every seed runs these same sessions; the seed decides which client
// drives which and the order of the branches.
var fanoutLoads = [][]api.SubmitRequest{
	{{Benchmark: "CG", Threads: 4}, {Benchmark: "mcf", Threads: 1}, {Benchmark: "EP", Threads: 2}, {Benchmark: "namd", Threads: 1},
		{Benchmark: "FT", Threads: 2}, {Benchmark: "lbm", Threads: 1}, {Benchmark: "IS", Threads: 4}, {Benchmark: "gcc", Threads: 1}},
	{{Benchmark: "LU", Threads: 4}, {Benchmark: "milc", Threads: 1}, {Benchmark: "MG", Threads: 2}, {Benchmark: "povray", Threads: 1},
		{Benchmark: "CG", Threads: 2}, {Benchmark: "bzip2", Threads: 1}, {Benchmark: "EP", Threads: 4}, {Benchmark: "hmmer", Threads: 1}},
	{{Benchmark: "FT", Threads: 4}, {Benchmark: "soplex", Threads: 1}, {Benchmark: "IS", Threads: 2}, {Benchmark: "sjeng", Threads: 1},
		{Benchmark: "LU", Threads: 2}, {Benchmark: "astar", Threads: 1}, {Benchmark: "MG", Threads: 4}, {Benchmark: "gobmk", Threads: 1}},
	{{Benchmark: "EP", Threads: 4}, {Benchmark: "libquantum", Threads: 1}, {Benchmark: "CG", Threads: 2}, {Benchmark: "h264ref", Threads: 1},
		{Benchmark: "MG", Threads: 2}, {Benchmark: "omnetpp", Threads: 1}, {Benchmark: "LU", Threads: 4}, {Benchmark: "calculix", Threads: 1}},
}

func (w *whatifFanout) setup(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	w.first = map[[2]int]*api.WhatIfReport{}
	slots := rng.Perm(len(fanoutLoads))
	for c := range w.sessions {
		for k := 0; k < 2; k++ {
			// Every round has each chip and each policy once.
			slot := slots[2*c+k]
			load := fanoutLoads[slot]
			sp := sessSpec{model: models[slot%2], policy: policies[slot], procs: load[:4]}
			feed := make([][]api.SubmitRequest, fanoutRepeats)
			for i := 1; i < fanoutRepeats; i++ {
				feed[i] = load[2+2*i : 4+2*i]
			}
			w.sessions[c] = append(w.sessions[c], sp)
			w.feeds[c] = append(w.feeds[c], feed)
		}
	}
	w.branches = append([]api.WhatIfBranchSpec{fanoutBranches[0]}, fanoutBranches[1:]...)
	rng.Shuffle(len(w.branches)-1, func(i, j int) {
		w.branches[i+1], w.branches[j+1] = w.branches[j+1], w.branches[i+1]
	})
	r, err := newRig(b, service.Config{})
	if err != nil {
		return err
	}
	w.r = r
	b.rig = r
	b.probe = w.sessions[0][0]
	b.rec.mayFail["whatif_fault"] = true
	b.directWhatIf = api.WhatIfRequest{Seconds: fanoutWindow, Branches: w.branches}
	return nil
}

func (w *whatifFanout) round(b *bench) error {
	return clients(func(c int) error {
		for k := range w.sessions[c] {
			if err := w.session(b, c, k, false); err != nil {
				return err
			}
		}
		return nil
	})
}

// session runs client c's session k through its branch points. With
// solo set (the check of finish) it also asks each what-if with solo
// advancement and compares it with the batched one.
func (w *whatifFanout) session(b *bench, c, k int, solo bool) error {
	rc := w.r.rc
	sp := w.sessions[c][k]
	var s api.Session
	err := b.rec.op(context.Background(), "create", func(ctx context.Context) error {
		var err error
		s, err = rc.CreateSession(ctx, api.CreateSessionRequest{Model: sp.model, Policy: sp.policy, TickSeconds: tick})
		return err
	})
	if err != nil {
		return err
	}
	for _, p := range sp.procs {
		err := b.rec.op(context.Background(), "submit", func(ctx context.Context) error {
			_, err := rc.Submit(ctx, s.ID, p)
			return err
		})
		if err != nil {
			return err
		}
	}
	parent := &live{id: s.ID}
	run := func(l *live, secs float64) (api.RunResult, error) {
		var res api.RunResult
		err := b.rec.op(context.Background(), "run", func(ctx context.Context) error {
			var err error
			res, err = rc.Run(ctx, l.id, secs)
			return err
		})
		if err == nil {
			b.addSim(secs)
			if err := checkRun(res, tick, l.energy); err != nil {
				b.fail("fanout %s: %v", l.id, err)
			}
			l.energy = res.EnergyJ
		}
		return res, err
	}
	if _, err := run(parent, 5); err != nil {
		return err
	}
	for i := 0; i < fanoutRepeats; i++ {
		for _, p := range w.feeds[c][k][i] {
			err := b.rec.op(context.Background(), "submit", func(ctx context.Context) error {
				_, err := rc.Submit(ctx, s.ID, p)
				return err
			})
			if err != nil {
				return err
			}
		}
		var snap api.Snapshot
		err := b.rec.op(context.Background(), "snapshot", func(ctx context.Context) error {
			var err error
			snap, err = rc.Snapshot(ctx, s.ID)
			return err
		})
		if err != nil {
			return err
		}
		req := api.WhatIfRequest{SnapshotID: snap.ID, Seconds: fanoutWindow, Branches: w.branches}
		var rep api.WhatIfReport
		err = b.rec.op(context.Background(), "whatif", func(ctx context.Context) error {
			var err error
			rep, err = rc.WhatIf(ctx, s.ID, req)
			return err
		})
		if err != nil {
			return err
		}
		b.addSim(fanoutWindow * float64(len(w.branches)))
		if err := checkWhatIf(rep, len(w.branches)); err != nil {
			b.fail("fanout what-if %s: %v", s.ID, err)
		}
		if b.tr != nil && rep.Batch != nil {
			b.lay.batch(rep.Batch)
		}
		if i == 0 {
			w.keepFirst(b, [2]int{c, k}, rep)
		}
		if err := w.faultOp(b, s.ID, snap.ID); err != nil {
			return err
		}
		if solo {
			req.Solo = true
			srep, err := rc.WhatIf(context.Background(), s.ID, req)
			if err != nil {
				return fmt.Errorf("solo what-if: %w", err)
			}
			if err := sameBranches(rep, srep); err != nil {
				b.fail("fanout batched vs solo what-if: %v", err)
			}
		}

		var fk api.Fork
		err = b.rec.op(context.Background(), "fork", func(ctx context.Context) error {
			var err error
			fk, err = rc.Fork(ctx, s.ID, api.ForkRequest{SnapshotID: snap.ID})
			return err
		})
		if err != nil {
			return err
		}
		child := &live{id: fk.Session.ID, energy: fk.Session.EnergyJ}
		if _, err := run(child, fanoutWindow); err != nil {
			return err
		}
		if _, err := run(parent, fanoutWindow); err != nil {
			return err
		}
		var ps, cs api.Session
		for _, x := range []struct {
			id  string
			out *api.Session
		}{{s.ID, &ps}, {child.id, &cs}} {
			err := b.rec.op(context.Background(), "read", func(ctx context.Context) error {
				var err error
				*x.out, err = rc.Session(ctx, x.id)
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := checkControl(rep.Branches[0], snap, cs); err != nil {
			b.fail("fanout control branch vs fork: %v", err)
		}
		if err := sameSession(ps, cs); err != nil {
			b.fail("fanout fork vs parent: %v", err)
		}
		if b.tr != nil {
			w.r.sessionLayers(b, child.id)
		}
		err = b.rec.op(context.Background(), "delete", func(ctx context.Context) error {
			return rc.DeleteSession(ctx, child.id)
		})
		if err != nil {
			return err
		}
	}
	if b.tr != nil {
		w.r.sessionLayers(b, s.ID)
	}
	return b.rec.op(context.Background(), "delete", func(ctx context.Context) error {
		return rc.DeleteSession(ctx, s.ID)
	})
}

// faultOp asks the known-fault branch alone from the snapshot. It fails
// with errEmergencies while the fault stands; any other outcome but a
// clean branch is a failed check.
func (w *whatifFanout) faultOp(b *bench, id, snapID string) error {
	err := b.rec.op(context.Background(), "whatif_fault", func(ctx context.Context) error {
		rep, err := w.r.rc.WhatIf(ctx, id, api.WhatIfRequest{SnapshotID: snapID, Seconds: fanoutWindow,
			Branches: []api.WhatIfBranchSpec{faultBranch}})
		if err != nil {
			return err
		}
		b.addSim(fanoutWindow)
		return checkFaultBranch(rep)
	})
	if err != nil && !errors.Is(err, errEmergencies) {
		return fmt.Errorf("whatif_fault: %w", err)
	}
	return nil
}

// keepFirst remembers a session's first what-if report; every later
// round starts from the same state, so its first report must be the same.
func (w *whatifFanout) keepFirst(b *bench, slot [2]int, rep api.WhatIfReport) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first[slot] == nil {
		w.first[slot] = &rep
		return
	}
	if err := sameBranches(*w.first[slot], rep); err != nil {
		b.fail("fanout what-if differs between rounds: %v", err)
	}
}

// finish repeats client 0's sessions with each what-if also asked solo.
func (w *whatifFanout) finish(b *bench) error {
	for k := range w.sessions[0] {
		if err := w.session(b, 0, k, true); err != nil {
			return err
		}
	}
	return nil
}

func (w *whatifFanout) close() {
	if w.r != nil {
		w.r.close()
	}
}
