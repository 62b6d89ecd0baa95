package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/service"
	"avfs/internal/sim"
	"avfs/internal/vmin"
)

// serveMix drives the router and two nodes with two closed-loop clients.
// Each round every client opens two small sessions, runs a fixed,
// seed-shuffled list of operations on them and deletes them, so every
// round does the same work from the same state.
type serveMix struct {
	r *rig
	// script[c] is client c's operation list; sessions[c] its sessions.
	script   [2][]step
	sessions [2][]sessSpec
	// gridModel/gridBench pick the estimate-search check of finish.
	gridModel string
	gridBench string
}

// sessSpec is how a session of a round is opened and first loaded.
type sessSpec struct {
	model, policy string
	procs         []api.SubmitRequest
}

// step is one operation of a client's script.
type step struct {
	kind    string
	sess    int
	secs    float64
	submit  api.SubmitRequest
	charReq api.CharacterizeRequest
	est     api.EstimateRequest
}

const tick = 0.010

var (
	models   = []string{"xgene2", "xgene3"}
	policies = []string{"baseline", "safe-vmin", "placement", "optimal"}
	// charReqs are the characterization cells serve-mix asks for; setup
	// computes them cold on both nodes, the timed phase reads them warm.
	charReqs = []api.CharacterizeRequest{
		{Threads: 4, Placement: "clustered"},
		{Threads: 4, Placement: "spreaded"},
	}
	// serveWeights is each operation kind's count per client per round.
	serveWeights = []struct {
		kind string
		n    int
	}{
		{"read", 16}, {"run", 6}, {"submit", 3}, {"snapshot", 2}, {"fork", 2},
		{"whatif", 2}, {"whatif_fast", 2}, {"estimate", 2}, {"characterize", 2}, {"migrate", 1},
	}
)

// The program decks: every round of every seed submits exactly these
// programs (NPB at 2 or 4 threads, SPEC single-threaded, as the API
// accepts); the seed only decides which session and step gets which.
// With seeded draws instead, the work a round does varied by seed more
// than the bounds allow.
var (
	npbDeck = []api.SubmitRequest{
		{Benchmark: "CG", Threads: 4}, {Benchmark: "EP", Threads: 2}, {Benchmark: "FT", Threads: 4},
		{Benchmark: "IS", Threads: 2}, {Benchmark: "LU", Threads: 4}, {Benchmark: "MG", Threads: 2},
		{Benchmark: "CG", Threads: 2},
	}
	specDeck = []api.SubmitRequest{
		{Benchmark: "mcf", Threads: 1}, {Benchmark: "lbm", Threads: 1}, {Benchmark: "namd", Threads: 1},
		{Benchmark: "gcc", Threads: 1}, {Benchmark: "milc", Threads: 1}, {Benchmark: "povray", Threads: 1},
		{Benchmark: "bzip2", Threads: 1},
	}
)

// dealer hands out a deck's cards in a seeded order.
type dealer struct {
	cards []api.SubmitRequest
	next  int
}

func deal(rng *rand.Rand, deck []api.SubmitRequest) *dealer {
	cards := append([]api.SubmitRequest(nil), deck...)
	rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	return &dealer{cards: cards}
}

func (d *dealer) card() api.SubmitRequest {
	c := d.cards[d.next%len(d.cards)]
	d.next++
	return c
}

func (w *serveMix) setup(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	npb, spec := deal(rng, npbDeck), deal(rng, specDeck)
	for c := 0; c < 2; c++ {
		for k := 0; k < 2; k++ {
			sp := sessSpec{model: models[k], policy: policies[2*c+k]}
			sp.procs = []api.SubmitRequest{npb.card(), spec.card()}
			w.sessions[c] = append(w.sessions[c], sp)
		}
	}
	for c := 0; c < 2; c++ {
		var s []step
		for _, wt := range serveWeights {
			for i := 0; i < wt.n; i++ {
				// Each kind alternates between the client's two sessions.
				st := step{kind: wt.kind, sess: i % 2, secs: 1}
				switch wt.kind {
				case "submit":
					if (c+i)%2 == 0 {
						st.submit = npb.card()
					} else {
						st.submit = spec.card()
					}
				case "characterize":
					st.charReq = charReqs[i%len(charReqs)]
				case "estimate":
					st.est = api.EstimateRequest{Model: models[i%2], Benchmark: "CG", Threads: 4}
				}
				s = append(s, st)
			}
		}
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		w.script[c] = s
	}
	w.gridModel = models[rng.Intn(2)]
	w.gridBench = experiments.FiveBenchmarks()[rng.Intn(5)].Name

	r, err := newRig(b, service.Config{})
	if err != nil {
		return err
	}
	w.r = r
	b.rig = r
	b.attribCheck = true
	b.probe = w.sessions[0][0]
	b.rec.mayFail["estimate"] = true
	return warmNodes(b, r)
}

// warmNodes fits each node's surrogate for both chips and computes the
// characterization cells serve-mix reads, so the timed phase sees warm
// stores, as a long-running server would.
func warmNodes(b *bench, r *rig) error {
	ctx := context.Background()
	for _, n := range r.nodes {
		for _, m := range models {
			if _, err := n.c.Estimate(ctx, api.EstimateRequest{Model: m, Benchmark: "CG", Threads: 2}); err != nil {
				return fmt.Errorf("warm estimate on %s: %w", n.name, err)
			}
			s, err := n.fleet.Create(api.CreateSessionRequest{Model: m})
			if err != nil {
				return fmt.Errorf("warm session on %s: %w", n.name, err)
			}
			for _, cr := range charReqs {
				t0 := time.Now()
				if _, err := n.fleet.Characterize(s.ID, cr); err != nil {
					return fmt.Errorf("warm characterize on %s: %w", n.name, err)
				}
				b.setupCells = append(b.setupCells, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			if err := n.fleet.Delete(s.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serveMix) round(b *bench) error {
	return clients(func(c int) error { return w.client(b, c) })
}

// live is a client's view of one of its sessions.
type live struct {
	id     string
	energy float64
}

// client runs client c's part of one round.
func (w *serveMix) client(b *bench, c int) error {
	ctx := context.Background()
	rc := w.r.rc
	var ss []*live
	for _, sp := range w.sessions[c] {
		var s api.Session
		err := b.rec.op(ctx, "create", func(ctx context.Context) error {
			var err error
			s, err = rc.CreateSession(ctx, api.CreateSessionRequest{Model: sp.model, Policy: sp.policy, TickSeconds: tick})
			return err
		})
		if err != nil {
			return err
		}
		l := &live{id: s.ID}
		ss = append(ss, l)
		for _, p := range sp.procs {
			if err := w.submit(b, l, p); err != nil {
				return err
			}
		}
		if err := w.run(b, l, 1); err != nil {
			return err
		}
	}
	for _, st := range w.script[c] {
		if err := w.do(b, ss[st.sess], st); err != nil {
			return fmt.Errorf("%s: %w", st.kind, err)
		}
	}
	for _, l := range ss {
		if b.tr != nil {
			w.r.sessionLayers(b, l.id)
		}
		if err := w.del(b, l.id); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveMix) submit(b *bench, l *live, p api.SubmitRequest) error {
	return b.rec.op(context.Background(), "submit", func(ctx context.Context) error {
		_, err := w.r.rc.Submit(ctx, l.id, p)
		return err
	})
}

// run advances a session and checks the result.
func (w *serveMix) run(b *bench, l *live, secs float64) error {
	var res api.RunResult
	err := b.rec.op(context.Background(), "run", func(ctx context.Context) error {
		var err error
		res, err = w.r.rc.Run(ctx, l.id, secs)
		return err
	})
	if err != nil {
		return err
	}
	b.addSim(secs)
	if err := checkRun(res, tick, l.energy); err != nil {
		b.fail("run %s: %v", l.id, err)
	}
	l.energy = res.EnergyJ
	return nil
}

func (w *serveMix) read(b *bench, id string) (api.Session, error) {
	var s api.Session
	err := b.rec.op(context.Background(), "read", func(ctx context.Context) error {
		var err error
		s, err = w.r.rc.Session(ctx, id)
		return err
	})
	if err == nil {
		if err := checkRun(api.RunResult{Now: s.Now, Ticks: s.Ticks, EnergyJ: s.EnergyJ, Emergencies: s.Emergencies}, tick, 0); err != nil {
			b.fail("read %s: %v", id, err)
		}
	}
	return s, err
}

func (w *serveMix) del(b *bench, id string) error {
	return b.rec.op(context.Background(), "delete", func(ctx context.Context) error {
		return w.r.rc.DeleteSession(ctx, id)
	})
}

func (w *serveMix) fork(b *bench, id string) (api.Fork, error) {
	var fk api.Fork
	err := b.rec.op(context.Background(), "fork", func(ctx context.Context) error {
		var err error
		fk, err = w.r.rc.Fork(ctx, id, api.ForkRequest{})
		return err
	})
	return fk, err
}

// advanceAlike runs a session and its fork by the same time and checks
// they end alike, then deletes the fork.
func (w *serveMix) advanceAlike(b *bench, l *live, child api.Session, secs float64, what string) error {
	cl := &live{id: child.ID, energy: child.EnergyJ}
	if err := w.run(b, l, secs); err != nil {
		return err
	}
	if err := w.run(b, cl, secs); err != nil {
		return err
	}
	a, err := w.read(b, l.id)
	if err != nil {
		return err
	}
	c, err := w.read(b, cl.id)
	if err != nil {
		return err
	}
	if err := sameSession(a, c); err != nil {
		b.fail("%s %s: %v", what, l.id, err)
	}
	if b.tr != nil {
		w.r.sessionLayers(b, cl.id)
	}
	return w.del(b, cl.id)
}

func (w *serveMix) do(b *bench, l *live, st step) error {
	ctx := context.Background()
	rc := w.r.rc
	switch st.kind {
	case "read":
		_, err := w.read(b, l.id)
		return err
	case "run":
		return w.run(b, l, st.secs)
	case "submit":
		return w.submit(b, l, st.submit)
	case "snapshot":
		return b.rec.op(ctx, "snapshot", func(ctx context.Context) error {
			snap, err := rc.Snapshot(ctx, l.id)
			if err == nil && snap.EnergyJ != l.energy {
				b.fail("snapshot %s: energy %.12g J, session at %.12g J", l.id, snap.EnergyJ, l.energy)
			}
			return err
		})
	case "fork":
		fk, err := w.fork(b, l.id)
		if err != nil {
			return err
		}
		return w.advanceAlike(b, l, fk.Session, st.secs, "fork")
	case "migrate":
		// A fork stays behind; the parent moves. Advanced alike, the
		// migrated session must equal the one that stayed.
		fk, err := w.fork(b, l.id)
		if err != nil {
			return err
		}
		src, err := w.r.nodeOf(l.id)
		if err != nil {
			return err
		}
		dst := w.r.other(src)
		err = b.rec.op(ctx, "migrate", func(ctx context.Context) error {
			_, err := src.c.MigrateSession(ctx, api.MigrateRequest{Session: l.id, TargetName: dst.name, TargetURL: dst.srv.URL})
			return err
		})
		if err != nil {
			return err
		}
		return w.advanceAlike(b, l, fk.Session, st.secs, "migrate")
	case "whatif", "whatif_fast":
		fast := st.kind == "whatif_fast"
		return b.rec.op(ctx, st.kind, func(ctx context.Context) error {
			rep, err := rc.WhatIf(ctx, l.id, api.WhatIfRequest{Seconds: st.secs, Fast: fast})
			if err != nil {
				return err
			}
			if err := checkWhatIf(rep, 4); err != nil {
				b.fail("%s %s: %v", st.kind, l.id, err)
			}
			if want := map[bool]string{true: "surrogate", false: "simulated"}[fast]; rep.Source != want {
				b.fail("%s %s: source %q", st.kind, l.id, rep.Source)
			}
			if !fast {
				b.addSim(4 * st.secs)
			}
			return nil
		})
	case "estimate":
		// Through the router, as the cluster API documents.
		// Today the router has no such route: the known fault is a 404.
		err := b.rec.op(ctx, "estimate", func(ctx context.Context) error {
			_, err := rc.Estimate(ctx, st.est)
			return err
		})
		var ae *api.Error
		if err != nil && !(errors.As(err, &ae) && ae.Status == http.StatusNotFound) {
			b.fail("estimate through the router: %v", err)
		}
		return nil
	case "characterize":
		return b.rec.op(ctx, "characterize", func(ctx context.Context) error {
			cz, err := rc.Characterize(ctx, l.id, st.charReq)
			if err == nil {
				if b.tr != nil {
					b.lay.charSource(cz.Source)
				}
				pfail, perr := modelPFail(cz)
				if perr == nil {
					perr = checkSafeVmin(cz.SafeFound, cz.SafeVminMV, pfail)
				}
				if perr != nil {
					b.fail("characterize %s: %v", l.id, perr)
				}
			}
			return err
		})
	}
	return fmt.Errorf("unknown step %q", st.kind)
}

// finish checks the energy-optimal search against its grid on a node.
func (w *serveMix) finish(b *bench) error {
	ctx := context.Background()
	n := w.r.nodes[0]
	spec := specOf(w.gridModel)
	threads := 4
	best, err := n.c.Estimate(ctx, api.EstimateRequest{Model: w.gridModel, Benchmark: w.gridBench, Threads: threads, Search: "energy"})
	if err != nil {
		return fmt.Errorf("search estimate: %w", err)
	}
	var grid []api.Estimate
	for f := spec.FreqStep; f <= spec.MaxFreq; f += spec.FreqStep {
		for _, pl := range []string{"clustered", "spreaded"} {
			for _, v := range []string{"nominal", "safe-vmin"} {
				p, err := n.c.Estimate(ctx, api.EstimateRequest{Model: w.gridModel, Benchmark: w.gridBench,
					Threads: threads, Placement: pl, FreqMHz: int(f), Voltage: v})
				if err != nil {
					return fmt.Errorf("grid estimate: %w", err)
				}
				grid = append(grid, p)
			}
		}
	}
	if err := checkSearch(best, grid); err != nil {
		b.fail("estimate search: %v", err)
	}
	return nil
}

func (w *serveMix) close() {
	if w.r != nil {
		w.r.close()
	}
}

// modelPFail is the Vmin failure model's probability at a
// characterization's reported safe Vmin, for the configuration the
// response describes.
func modelPFail(cz api.Characterization) (float64, error) {
	spec := specOf(cz.Model)
	place := sim.Clustered
	if cz.Placement == "spreaded" {
		place = sim.Spreaded
	}
	cores, err := sim.CoresFor(spec, place, cz.Threads)
	if err != nil {
		return 0, err
	}
	cfg := &vmin.Config{Spec: spec, FreqClass: clock.ClassOf(spec, chip.MHz(cz.FreqMHz)), Cores: cores}
	return vmin.PFail(cfg, chip.Millivolts(cz.SafeVminMV)), nil
}

func specOf(model string) *chip.Spec {
	if model == "xgene3" {
		return chip.XGene3Spec()
	}
	return chip.XGene2Spec()
}
