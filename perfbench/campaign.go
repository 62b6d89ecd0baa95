package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"avfs/internal/chip"
	"avfs/internal/claims"
	"avfs/internal/clock"
	"avfs/internal/experiments"
	"avfs/internal/experiments/runner"
	"avfs/internal/sim"
	"avfs/internal/vmin"
	"avfs/internal/vmin/store"
	"avfs/internal/wlgen"
)

// paperCampaign runs, offline, the paper-fidelity claims campaign, a
// two-seed Table IV replay on both chips and a set of characterization
// cells through a fresh store, as cells of one experiment-runner pool
// of width 2.
type paperCampaign struct {
	replays []tableIV
	chars   []*vmin.Config
	// order is the seeded dispatch order of a round's first pass.
	order []int
	rng   *rand.Rand
}

// tableIV is one hour-long arrival trace to replay under all four
// Table IV configurations.
type tableIV struct {
	spec *chip.Spec
	wl   *wlgen.Workload
}

// campaignWidth is the runner pool width.
const campaignWidth = 2

// paperFidelity is cmd/validate's paper-fidelity setting: 1000-run
// characterization and the one-hour evaluation workload of seed 42. The
// claims are stated for it; on other workload seeds some claim bands do
// not hold (table34-savings fails on seed 10), so the run's seed varies
// only the Table IV replays.
var paperFidelity = claims.Fidelity{Trials: 0, EvalSeconds: 3600, Seed: 42}

func (w *paperCampaign) setup(b *bench) error {
	w.rng = rand.New(rand.NewSource(b.seed))
	// A cell's wall time moves with what the other worker runs beside it
	// (the seed orders the cells) and with the host's CPU steal, so
	// kind_p50_geomean_ms takes each cell's CPU time on its worker's
	// thread. The claims cell runs campaigns of its own on further
	// goroutines, which its thread does not see, so it is left out of
	// the geomean; its work counts in cpu_ms_per_op.
	b.rec.threadCPU = true
	b.rec.geoSkip["claims"] = true
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		// Fixed traces, as in fleet-advance: the seed orders the cells.
		for j := int64(1); j <= 2; j++ {
			w.replays = append(w.replays, tableIV{spec, wlgen.Generate(spec, wlgen.Config{Duration: 3600}, j)})
		}
		for _, pl := range []sim.Placement{sim.Clustered, sim.Spreaded} {
			for _, n := range []int{2, 4} {
				for _, fc := range []clock.FreqClass{clock.FullSpeed, clock.HalfSpeed} {
					cores, err := sim.CoresFor(spec, pl, n)
					if err != nil {
						return err
					}
					w.chars = append(w.chars, &vmin.Config{Spec: spec, FreqClass: fc, Cores: cores})
				}
			}
		}
	}
	return nil
}

// cell is one unit of campaign work.
type cell struct {
	kind string
	run  func() error
}

func (w *paperCampaign) round(b *bench) error {
	st := store.New("")
	ch := &vmin.Characterizer{}
	var mu sync.Mutex
	cold := make([]vmin.Characterization, len(w.chars))
	evals := make([]map[experiments.SystemConfig]experiments.EvalResult, len(w.replays))
	for i := range evals {
		evals[i] = map[experiments.SystemConfig]experiments.EvalResult{}
	}

	var cells []cell
	cells = append(cells, cell{"claims", func() error {
		if err := checkClaims(claims.Verify(paperFidelity)); err != nil {
			b.fail("paper claims: %v", err)
		}
		return nil
	}})
	for i, rp := range w.replays {
		for _, cfg := range experiments.SystemConfigs() {
			i, rp, cfg := i, rp, cfg
			cells = append(cells, cell{"replay", func() error {
				res, err := experiments.Evaluate(rp.spec, rp.wl, cfg)
				if err != nil {
					return fmt.Errorf("replay %s %v: %w", rp.spec.Name, cfg, err)
				}
				b.addSim(res.TimeSec)
				mu.Lock()
				evals[i][cfg] = res
				mu.Unlock()
				if b.tr != nil {
					b.lay.daemonStats(res)
				}
				return nil
			}})
		}
	}
	for i, cfg := range w.chars {
		i, cfg := i, cfg
		cells = append(cells, cell{"characterize", func() error {
			cz, src := st.Get(ch, cfg)
			if src != store.SourceComputed {
				b.fail("characterization served from %v by a fresh store", src)
			}
			cold[i] = cz
			checkCell(b, cz, cfg)
			return nil
		}})
	}
	if w.order == nil {
		w.order = w.rng.Perm(len(cells))
	}
	shuffled := make([]cell, len(cells))
	for i, k := range w.order {
		shuffled[i] = cells[k]
	}
	if err := w.runCells(b, shuffled); err != nil {
		return err
	}

	// A second pass over the same cells must come from the store, equal
	// to the cold pass.
	var warm []cell
	for i, cfg := range w.chars {
		i, cfg := i, cfg
		warm = append(warm, cell{"characterize_warm", func() error {
			cz, src := st.Get(ch, cfg)
			if src != store.SourceMemory {
				b.fail("repeated characterization served from %v, want memory", src)
			}
			if cz.SafeVmin != cold[i].SafeVmin || cz.TotalRuns != cold[i].TotalRuns || len(cz.Levels) != len(cold[i].Levels) {
				b.fail("stored characterization differs from the computed one")
			}
			return nil
		}})
	}
	if err := w.runCells(b, warm); err != nil {
		return err
	}
	for i, rp := range w.replays {
		if err := checkTableIV(evals[i]); err != nil {
			b.fail("Table IV %s seed %d: %v", rp.spec.Name, rp.wl.Seed, err)
		}
	}
	if b.tr != nil {
		b.lay.storeCounts(st.Hits(), st.Misses())
	}
	return nil
}

// runCells dispatches cells through the runner pool, timing each one.
func (w *paperCampaign) runCells(b *bench, cells []cell) error {
	t0 := time.Now()
	var busy time.Duration
	var mu sync.Mutex
	_, err := runner.Run(context.Background(), cells, campaignWidth, func(ctx context.Context, c cell) (struct{}, error) {
		start := time.Now()
		err := b.rec.op(ctx, c.kind, func(context.Context) error { return c.run() })
		d := time.Since(start)
		mu.Lock()
		busy += d
		mu.Unlock()
		return struct{}{}, err
	})
	if b.tr != nil {
		b.lay.campaignRound(busy, time.Since(t0), campaignWidth)
	}
	return err
}

// checkCell checks a characterization against the Vmin failure model:
// a safe Vmin was found and the model's failure probability is zero there.
func checkCell(b *bench, cz vmin.Characterization, cfg *vmin.Config) {
	if err := checkSafeVmin(cz.SafeFound, int(cz.SafeVmin), vmin.PFail(cfg, cz.SafeVmin)); err != nil {
		b.fail("characterization %s %d cores: %v", cfg.Spec.Name, len(cfg.Cores), err)
	}
}

func (w *paperCampaign) finish(*bench) error { return nil }
func (w *paperCampaign) close()              {}
