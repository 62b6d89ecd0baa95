package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"avfs/api"
	"avfs/internal/service"
	"avfs/internal/wlgen"
)

// fleetAdvance replays seeded wlgen arrival traces on unrelated sessions:
// each session submits at every arrival, runs to the next one, then runs
// until idle. Two clients each drive half the sessions through the
// router. Sessions mix both chips and all four Table IV policies.
type fleetAdvance struct {
	r      *rig
	traces []replay
	// finals[i] is session i's end state in the first round; every later
	// round (and the solo re-play) must end the same way.
	mu     sync.Mutex
	finals map[int]api.Session
}

// replay is one session's fixed input: chip, policy and arrival list.
type replay struct {
	model, policy string
	arrivals      []arrival
}

type arrival struct {
	at  float64
	req api.SubmitRequest
}

// fleetTraces is the trace count per chip; with four policies each, a
// round replays 2 x 4 x fleetTraces sessions, half per client.
const fleetTraces = 4

// traceSeconds is each arrival trace's length. Its phases are an eighth
// of it (wlgen's default is 300 s, which would make a 120 s trace one
// load level), so a trace passes once through wlgen's eight-phase load
// cycle of heavy, average, light and idle periods. The gap between
// arrivals is wlgen's default.
const traceSeconds = 120

// idleBudget bounds the final run-until-idle of a replay (simulated s).
const idleBudget = 3600

func (w *fleetAdvance) setup(b *bench) error {
	w.traces = makeReplays(b.seed)
	w.finals = map[int]api.Session{}
	r, err := newRig(b, service.Config{})
	if err != nil {
		return err
	}
	w.r = r
	b.rig = r
	b.attribCheck = true
	return nil
}

// makeReplays builds the sessions: fleetTraces wlgen arrival traces per
// chip, each replayed under all four Table IV policies. The traces come
// from fixed generator seeds, so every seed replays the same sessions;
// the seed decides their order and which client drives which. (Traces
// drawn from the seed made a round's work vary by more than the bounds
// allow: a few traces end in long, uncoalesced tails on X-Gene 2.)
func makeReplays(seed int64) []replay {
	var out []replay
	for _, model := range models {
		spec := specOf(model)
		for j := 0; j < fleetTraces; j++ {
			wl := wlgen.Generate(spec, wlgen.Config{Duration: traceSeconds, MeanPhaseSeconds: traceSeconds / 8}, int64(1000+j))
			var arr []arrival
			for _, a := range wl.Arrivals {
				arr = append(arr, arrival{at: a.At, req: api.SubmitRequest{Benchmark: a.Bench.Name, Threads: a.Threads}})
			}
			for _, policy := range policies {
				out = append(out, replay{model: model, policy: policy, arrivals: arr})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// snapTicks rounds an arrival time to the tick grid, so every backend
// advances by the same whole number of ticks.
func snapTicks(at float64) float64 { return math.Round(at/tick) * tick }

func (w *fleetAdvance) round(b *bench) error {
	return clients(func(c int) error {
		for i := c; i < len(w.traces); i += 2 {
			if err := w.replayOne(b, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayOne drives session i's trace through the router and checks it.
func (w *fleetAdvance) replayOne(b *bench, i int) error {
	rc := w.r.rc
	rp := w.traces[i]
	var s api.Session
	err := b.rec.op(context.Background(), "create", func(ctx context.Context) error {
		var err error
		s, err = rc.CreateSession(ctx, api.CreateSessionRequest{Model: rp.model, Policy: rp.policy, TickSeconds: tick})
		return err
	})
	if err != nil {
		return err
	}
	energy := 0.0
	check := func(res api.RunResult) {
		if err := checkRun(res, tick, energy); err != nil {
			b.fail("fleet session %d: %v", i, err)
		}
		energy = res.EnergyJ
	}
	now := 0.0
	for _, a := range rp.arrivals {
		if at := snapTicks(a.at); at > now {
			var res api.RunResult
			err := b.rec.op(context.Background(), "run", func(ctx context.Context) error {
				var err error
				res, err = rc.Run(ctx, s.ID, at-now)
				return err
			})
			if err != nil {
				return err
			}
			check(res)
			b.addSim(res.Now - now)
			now = res.Now
		}
		err := b.rec.op(context.Background(), "submit", func(ctx context.Context) error {
			_, err := rc.Submit(ctx, s.ID, a.req)
			return err
		})
		if err != nil {
			return err
		}
	}
	var res api.RunResult
	err = b.rec.op(context.Background(), "run_until_idle", func(ctx context.Context) error {
		var err error
		res, err = rc.RunUntilIdle(ctx, s.ID, idleBudget)
		return err
	})
	if err != nil {
		return err
	}
	check(res)
	b.addSim(res.Now - now)
	var end api.Session
	err = b.rec.op(context.Background(), "read", func(ctx context.Context) error {
		var err error
		end, err = rc.Session(ctx, s.ID)
		return err
	})
	if err != nil {
		return err
	}
	if err := checkFinished(end, len(rp.arrivals)); err != nil {
		b.fail("fleet session %d: %v", i, err)
	}
	w.remember(b, i, end)
	if b.tr != nil {
		w.r.sessionLayers(b, s.ID)
	}
	return b.rec.op(context.Background(), "delete", func(ctx context.Context) error {
		return rc.DeleteSession(ctx, s.ID)
	})
}

// remember keeps session i's first end state and checks later ones
// against it: every round replays the same inputs from scratch.
func (w *fleetAdvance) remember(b *bench, i int, end api.Session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.finals[i]
	if !ok {
		w.finals[i] = end
		return
	}
	if err := sameSession(first, end); err != nil {
		b.fail("fleet session %d differs between rounds: %v", i, err)
	}
}

// finish re-plays a sample of the sessions on a fleet with batched
// stepping off (no gang shards, no shared memo) through direct Fleet
// calls; they must end exactly as the batched fleet's did.
func (w *fleetAdvance) finish(b *bench) error {
	solo := service.New(service.Config{NoBatch: true, ReapEvery: -1})
	defer solo.Close()
	ctx := context.Background()
	for _, i := range []int{0, 1} {
		rp := w.traces[i]
		s, err := solo.Create(api.CreateSessionRequest{Model: rp.model, Policy: rp.policy, TickSeconds: tick})
		if err != nil {
			return err
		}
		now := 0.0
		for _, a := range rp.arrivals {
			if at := snapTicks(a.at); at > now {
				res, err := solo.RunSync(ctx, s.ID, api.RunRequest{Seconds: at - now})
				if err != nil {
					return fmt.Errorf("solo run: %w", err)
				}
				now = res.Now
			}
			if _, err := solo.Submit(s.ID, a.req); err != nil {
				return fmt.Errorf("solo submit: %w", err)
			}
		}
		if _, err := solo.RunSync(ctx, s.ID, api.RunRequest{Seconds: idleBudget, UntilIdle: true}); err != nil {
			return fmt.Errorf("solo run until idle: %w", err)
		}
		end, err := solo.Get(s.ID)
		if err != nil {
			return err
		}
		w.mu.Lock()
		batched := w.finals[i]
		w.mu.Unlock()
		if err := sameSession(batched, end); err != nil {
			b.fail("fleet session %d batched vs solo: %v", i, err)
		}
	}
	return nil
}

func (w *fleetAdvance) close() {
	if w.r != nil {
		w.r.close()
	}
}
