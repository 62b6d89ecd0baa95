package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"avfs/api"
	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/experiments"
	"avfs/internal/sched"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/surrogate"
	"avfs/internal/workload"
)

// The attribution check on the run route: the per-layer medians must sum
// to the end-to-end median within attribTol, and at least attribNest of
// the requests must nest as the layer model says (the router's time
// covers the node's, which covers pool wait and the run cell, which
// covers the simulator's advance).
const (
	attribTol  = 0.25
	attribNest = 0.99
)

// httpKinds are the operation kinds whose HTTP edge cost is reported.
var httpKinds = []string{"read", "run", "snapshot", "fork", "whatif", "whatif_fast"}

// layers collects what a traced run learns about each layer: the
// program's own spans and counters (read through Fleet.Spans,
// Fleet.SessionMetrics, Fleet.Registry and the router's /metrics) and
// the benchmark's spans around its calls.
type layers struct {
	mu sync.Mutex
	// Per request ID, from the sessions' span rings.
	queue, cell, advance map[string]float64
	advTicks             float64
	// Summed over sessions, from their metrics.
	ticks, coalesced, reconfigs, polls, sessSimS float64
	// What-if lockstep batches, from the reports.
	batchTicks, batchShared float64
	// Characterization store: how many answers it served from cache.
	storeHit, storeAll float64
	// Campaign rounds: summed cell time and wall time.
	busy, wall time.Duration
	width      int
	// Daemon polls of campaign replays and their simulated time.
	replayPolls, replayS float64
}

func newLayers() *layers {
	return &layers{queue: map[string]float64{}, cell: map[string]float64{}, advance: map[string]float64{}}
}

// sessionLayers reads a session's spans and metrics before it is deleted.
func (r *rig) sessionLayers(b *bench, id string) {
	n, err := r.nodeOf(id)
	if err != nil {
		b.fail("trace: %v", err)
		return
	}
	spans, _, _, err := n.fleet.Spans(id, 0)
	if err != nil {
		b.fail("trace spans of %s: %v", id, err)
		return
	}
	var buf bytes.Buffer
	if err := n.fleet.SessionMetrics(id, &buf); err != nil {
		b.fail("trace metrics of %s: %v", id, err)
		return
	}
	text := buf.String()
	l := b.lay
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sp := range spans {
		ms := float64(sp.DurationNs) / 1e6
		switch sp.Name {
		case "actor.queue":
			l.queue[sp.Request] += ms
		case "runner.cell":
			l.cell[sp.Request] += ms
		case "sim.advance":
			l.advance[sp.Request] += ms
			l.advTicks += float64(sp.Ticks)
		}
	}
	l.ticks += promSum(text, "avfs_sim_ticks_total")
	l.coalesced += promSum(text, "avfs_sim_ticks_coalesced_total")
	l.reconfigs += promSum(text, daemon.MetricReconfigs)
	l.polls += promSum(text, daemon.MetricPolls)
	l.sessSimS += promSum(text, "avfs_sim_seconds")
}

func (l *layers) batch(bt *api.WhatIfBatch) {
	l.mu.Lock()
	l.batchTicks += float64(bt.Ticks)
	l.batchShared += float64(bt.SharedTicks)
	l.mu.Unlock()
}

func (l *layers) charSource(src string) {
	l.mu.Lock()
	l.storeAll++
	if src == "memory" || src == "disk" {
		l.storeHit++
	}
	l.mu.Unlock()
}

func (l *layers) storeCounts(hits, misses int64) {
	l.mu.Lock()
	l.storeHit += float64(hits)
	l.storeAll += float64(hits + misses)
	l.mu.Unlock()
}

func (l *layers) campaignRound(busy, wall time.Duration, width int) {
	l.mu.Lock()
	l.busy += busy
	l.wall += wall
	l.width = width
	l.mu.Unlock()
}

func (l *layers) daemonStats(res experiments.EvalResult) {
	l.mu.Lock()
	l.replayPolls += float64(res.DaemonStats.Polls)
	l.replayS += res.TimeSec
	l.mu.Unlock()
}

// counters reads the cluster-wide counters whose change over the timed
// phase the per-layer table reports.
func (r *rig) counters() map[string]float64 {
	out := map[string]float64{}
	text, err := r.rc.Metrics(context.Background(), "")
	if err == nil {
		for _, name := range []string{"avfs_router_probe_fallbacks_total", "avfs_router_retries_total"} {
			out[name] = promSum(text, name)
		}
	}
	for _, name := range []string{"avfs_fleet_runs_rejected_total", "avfs_sim_batch_ticks_total",
		"avfs_sim_batch_shared_ticks_total", "avfs_sim_batch_memo_hits_total", "avfs_sim_batch_memo_misses_total"} {
		out[name] = r.fleetValue(name)
	}
	return out
}

// layerMetrics derives the per-layer table of a traced run and runs the
// attribution check on the run route.
func (b *bench) layerMetrics(wall float64) map[string]metric {
	l := b.lay
	m := map[string]metric{}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, c float64) float64 {
		if c == 0 {
			return 0
		}
		return a / c
	}
	ok, _ := b.rec.latencies()
	for _, k := range []string{"read", "run", "snapshot", "fork", "migrate", "whatif", "whatif_fast"} {
		set(k+"_p50_ms", "ms", median(b.rec.kind(k)))
	}

	// Join the three hops of each traced operation.
	type hops struct {
		kind                   string
		client, router, nodeMS float64
		nodeBytes              int64
		haveRouter, haveNode   bool
	}
	byOp := map[string]*hops{}
	for _, s := range b.tr.all() {
		if s.Op == "" {
			continue
		}
		h := byOp[s.Op]
		if h == nil {
			h = &hops{kind: s.Kind}
			byOp[s.Op] = h
		}
		ms := float64(s.Dur.Nanoseconds()) / 1e6
		switch s.Layer {
		case "client":
			h.client = ms
		case "cluster":
			h.router, h.haveRouter = ms, true
		case "service.http":
			h.nodeMS, h.nodeBytes, h.haveNode = ms, s.Bytes, true
		}
	}
	var hop []float64
	nodeMS := map[string][]float64{}
	respKB := map[string][]float64{}
	var e2e, cHop, cEdge, cWait, cAdv, cRest []float64
	nested := 0
	for id, h := range byOp {
		if h.haveNode {
			nodeMS[h.kind] = append(nodeMS[h.kind], h.nodeMS)
			respKB[h.kind] = append(respKB[h.kind], float64(h.nodeBytes)/1024)
			if h.haveRouter {
				hop = append(hop, h.router-h.nodeMS)
			}
		}
		l.mu.Lock()
		q, qok := l.queue[id]
		c, cok := l.cell[id]
		a := l.advance[id]
		l.mu.Unlock()
		if h.kind == "run" && h.haveRouter && h.haveNode && qok && cok {
			e2e = append(e2e, h.client)
			cHop = append(cHop, h.router-h.nodeMS)
			cEdge = append(cEdge, h.nodeMS-q-c)
			cWait = append(cWait, q)
			cAdv = append(cAdv, a)
			cRest = append(cRest, h.client-h.router+c-a)
			if h.router >= h.nodeMS && h.nodeMS >= q+c && c >= a {
				nested++
			}
		}
	}
	set("cluster.hop_p50_ms", "ms", median(hop))

	direct := b.directPass()
	for _, k := range httpKinds {
		edge := 0.0
		switch {
		case k == "run":
			edge = median(cEdge)
		case len(nodeMS[k]) > 0 && direct[k] > 0:
			edge = median(nodeMS[k]) - direct[k]
		}
		set("service.http_p50_ms."+k, "ms", edge)
		set("service.resp_kb."+k, "KB", median(respKB[k]))
	}

	// Attribution on the run route: the layer medians must add up to the
	// end-to-end median.
	parts := median(cHop) + median(cEdge) + median(cWait) + median(cAdv) + median(cRest)
	attribErr, nestShare := 0.0, 0.0
	if len(e2e) > 0 {
		attribErr = math.Abs(parts-median(e2e)) / median(e2e)
		nestShare = float64(nested) / float64(len(e2e))
		fmt.Printf("attribution run route (n=%d): e2e p50 %.4f ms = hop %.4f + http %.4f + pool wait %.4f + sim.advance %.4f + rest %.4f (sum %.4f, %.1f%% off; %.1f%% of requests nest)\n",
			len(e2e), median(e2e), median(cHop), median(cEdge), median(cWait), median(cAdv), median(cRest), parts, 100*attribErr, 100*nestShare)
		if b.attribCheck && attribErr > attribTol {
			b.fail("attribution: run-route layer medians sum to %.4f ms, end-to-end median %.4f ms (%.1f%% off, tolerance %.0f%%)",
				parts, median(e2e), 100*attribErr, 100*attribTol)
		}
		if b.attribCheck && nestShare < attribNest {
			b.fail("attribution: only %.1f%% of run requests nest router > node > pool > advance", 100*nestShare)
		}
	}
	set("attrib.run_err", "1", attribErr)

	l.mu.Lock()
	defer l.mu.Unlock()
	var qs, cs []float64
	for _, v := range l.queue {
		qs = append(qs, v)
	}
	for _, v := range l.cell {
		cs = append(cs, v)
	}
	advMS := 0.0
	for _, v := range l.advance {
		advMS += v
	}
	delta := func(name string) float64 { return b.endCounters[name] - b.startCounters[name] }
	set("cluster.probes", "count", delta("avfs_router_probe_fallbacks_total"))
	set("cluster.retries", "count", delta("avfs_router_retries_total"))
	set("runner.queue_wait_p50_ms", "ms", median(qs))
	set("runner.cell_p50_ms", "ms", median(cs))
	set("runner.rejected", "count", delta("avfs_fleet_runs_rejected_total"))
	set("sim.advance_ms", "ms", advMS)
	set("sim.ticks", "count", l.ticks)
	set("sim.ns_per_tick", "ns", ratio(advMS*1e6, l.advTicks))
	set("sim.coalesced_ratio", "1", ratio(l.coalesced, l.ticks))
	shared := delta("avfs_sim_batch_shared_ticks_total") + l.batchShared
	set("sim.batch_shared_ratio", "1", ratio(shared, delta("avfs_sim_batch_ticks_total")+l.batchTicks))
	hits, misses := delta("avfs_sim_batch_memo_hits_total"), delta("avfs_sim_batch_memo_misses_total")
	set("sim.memo_hits", "count", hits)
	set("sim.memo_misses", "count", misses)
	set("sim.memo_hit_ratio", "1", ratio(hits, hits+misses))
	set("daemon.reconfigs_per_sim_h", "count/h", ratio(l.reconfigs, l.sessSimS/3600))
	polls := ratio(l.polls, l.sessSimS/3600)
	if l.replayS > 0 {
		polls = ratio(l.replayPolls, l.replayS/3600)
	}
	set("daemon.polls_per_sim_h", "count/h", polls)
	cold := append(b.setupCells, b.rec.kind("characterize")...)
	if l.width == 0 {
		// On the serving workloads the timed characterize calls are warm.
		cold = b.setupCells
	}
	set("vmin.cell_cold_ms", "ms", median(cold))
	set("vmin.store_hit_ratio", "1", ratio(l.storeHit, l.storeAll))
	cells := b.rec.kind("claims")
	cells = append(cells, b.rec.kind("replay")...)
	cells = append(cells, b.rec.kind("characterize")...)
	if l.width == 0 {
		cells = nil
	}
	set("experiments.cells", "count", float64(len(cells)))
	set("experiments.cell_p50_ms", "ms", median(cells))
	set("experiments.worker_busy", "1", ratio(l.busy.Seconds(), float64(l.width)*l.wall.Seconds()))

	ops := float64(len(ok))
	set("go.alloc_kb_per_op", "KB", ratio(float64(b.ms1.TotalAlloc-b.ms0.TotalAlloc)/1024, ops))
	set("go.gc_cycles", "count", float64(b.ms1.NumGC-b.ms0.NumGC))
	set("go.gc_pause_ms", "ms", float64(b.ms1.PauseTotalNs-b.ms0.PauseTotalNs)/1e6)

	for k, v := range b.probeLayers() {
		m[k] = v
	}
	return m
}

// directPass times the node's Fleet methods called directly, without
// HTTP, on a session opened like the workload's first one and with the
// workload's what-if request: the per-kind medians the HTTP edge cost is
// measured against.
func (b *bench) directPass() map[string]float64 {
	out := map[string]float64{}
	if b.rig == nil {
		return out
	}
	f := b.rig.nodes[0].fleet
	sp := b.probe
	s, err := f.Create(api.CreateSessionRequest{Model: sp.model, Policy: sp.policy, TickSeconds: tick})
	if err != nil {
		b.fail("direct pass: %v", err)
		return out
	}
	// Deleting the probe session can only fail if it is already gone.
	defer func() { _ = f.Delete(s.ID) }()
	for _, p := range sp.procs {
		if _, err := f.Submit(s.ID, p); err != nil {
			b.fail("direct pass: %v", err)
			return out
		}
	}
	ctx := context.Background()
	if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 5}); err != nil {
		b.fail("direct pass: %v", err)
		return out
	}
	times := map[string][]float64{}
	timeIt := func(kind string, fn func() error) {
		t0 := time.Now()
		err := fn()
		times[kind] = append(times[kind], float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			b.fail("direct %s: %v", kind, err)
		}
	}
	for i := 0; i < 50; i++ {
		timeIt("read", func() error { _, err := f.Get(s.ID); return err })
		timeIt("snapshot", func() error { _, err := f.Snapshot(s.ID); return err })
		var fk api.Fork
		timeIt("fork", func() error { var err error; fk, err = f.Fork(s.ID, api.ForkRequest{}); return err })
		if fk.Session.ID != "" {
			_ = f.Delete(fk.Session.ID)
		}
		wi := b.directWhatIf
		timeIt("whatif", func() error { _, err := f.WhatIf(ctx, s.ID, wi); return err })
		wi.Fast = true
		timeIt("whatif_fast", func() error { _, err := f.WhatIf(ctx, s.ID, wi); return err })
		if _, err := f.RunSync(ctx, s.ID, api.RunRequest{Seconds: 0.5}); err != nil {
			b.fail("direct run: %v", err)
		}
	}
	for k, v := range times {
		out[k] = median(v)
	}
	return out
}

// probeLayers times the snapshot and surrogate layers through their
// public functions, on a machine loaded like the workload's first
// session and on freshly fitted surrogate models.
func (b *bench) probeLayers() map[string]metric {
	m := map[string]metric{}
	sp := b.probe
	spec := specOf(sp.model)
	mach := sim.New(spec)
	mach.Tick = tick
	base := sched.NewBaseline(mach)
	d := daemon.New(mach, daemon.DefaultConfig())
	d.Attach()
	base.SetEnabled(false)
	for _, p := range sp.procs {
		bm, err := workload.ByName(p.Benchmark)
		if err == nil {
			_, err = mach.Submit(bm, p.Threads)
		}
		if err != nil {
			b.fail("snapshot probe: %v", err)
			return m
		}
	}
	mach.RunFor(5)
	var capMS, restMS []float64
	var payload []byte
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		ds, err := d.CaptureState()
		if err != nil {
			mach.RunFor(0.1)
			continue
		}
		st := &snapshot.SessionState{Model: sp.model, Policy: sp.policy, Machine: mach.CaptureState(), Daemon: ds, Baseline: base.CaptureState()}
		_, payload, err = snapshot.Encode(st)
		capMS = append(capMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			b.fail("snapshot probe encode: %v", err)
			return m
		}
		t0 = time.Now()
		back, err := snapshot.Decode(payload)
		if err == nil {
			_, err = sim.RestoreMachine(spec, back.Machine)
		}
		restMS = append(restMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			b.fail("snapshot probe restore: %v", err)
			return m
		}
	}
	m["snapshot.capture_p50_ms"] = metric{median(capMS), "ms"}
	m["snapshot.restore_p50_ms"] = metric{median(restMS), "ms"}
	m["snapshot.kb"] = metric{float64(len(payload)) / 1024, "KB"}

	var fit []float64
	var est *surrogate.Estimator
	for _, s := range []*chip.Spec{chip.XGene2Spec(), spec} {
		t0 := time.Now()
		model, err := surrogate.NewStore("").Get(s, surrogate.FitConfig{})
		fit = append(fit, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			b.fail("surrogate fit: %v", err)
			return m
		}
		sm, _ := surrogate.ParseScalingModel("")
		if est, err = surrogate.NewEstimator(s, model, surrogate.NativeNode(s), sm); err != nil {
			b.fail("surrogate estimator: %v", err)
			return m
		}
	}
	m["surrogate.fit_ms"] = metric{median(fit), "ms"}
	bm := workload.MustByName("CG")
	perCall := func(n int, fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	m["surrogate.point_us"] = metric{perCall(20000, func() {
		_, _ = est.EstimateEnergy(surrogate.Query{Bench: bm, Threads: 4})
	}), "us"}
	m["surrogate.search_us"] = metric{perCall(2000, func() {
		_, _ = est.SearchEnergyOptimal(surrogate.SearchQuery{Bench: bm})
	}), "us"}
	var procs []surrogate.Proc
	for _, p := range sp.procs {
		procs = append(procs, surrogate.Proc{Bench: workload.MustByName(p.Benchmark), Threads: p.Threads, RemFrac: 1})
	}
	m["surrogate.set_us"] = metric{perCall(2000, func() {
		est.EstimateSet(procs, surrogate.BranchSpec{Config: experiments.Optimal}, 60, false)
	}), "us"}
	return m
}
