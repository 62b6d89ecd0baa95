package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"avfs/api"
)

// bench is the state one run shares between its workload, its recorder
// and, in a traced run, its span log.
type bench struct {
	seed   int64
	traced bool
	rec    *recorder
	tr     *tracer // nil in an untraced run

	mu    sync.Mutex
	probs []string
	simS  float64

	ms0, ms1 runtime.MemStats
	// setupCells are the cold characterization cell times of set-up.
	setupCells []float64

	// lay collects the per-layer samples of a traced run; rig (nil for
	// the offline workload) is the cluster its counters are read from,
	// probe the session shape the direct and layer probes load.
	lay          *layers
	rig          *rig
	probe        sessSpec
	directWhatIf api.WhatIfRequest
	// attribCheck makes the run-route attribution a check of the traced
	// run; elsewhere it is only reported.
	attribCheck                bool
	startCounters, endCounters map[string]float64
}

// defaultProbe is the probe session of workloads without sessions of
// their own shape.
var defaultProbe = sessSpec{model: "xgene3", policy: "optimal", procs: []api.SubmitRequest{
	{Benchmark: "CG", Threads: 4}, {Benchmark: "mcf", Threads: 1}, {Benchmark: "lbm", Threads: 1}, {Benchmark: "EP", Threads: 4},
}}

func newBench(seed int64, traced bool) *bench {
	b := &bench{seed: seed, traced: traced, rec: newRecorder(), lay: newLayers(), probe: defaultProbe,
		directWhatIf: api.WhatIfRequest{Seconds: 1}}
	if traced {
		b.tr = &tracer{}
		b.rec.tr = b.tr
	}
	return b
}

// fail records a failed correctness check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.probs) < 50 {
		b.probs = append(b.probs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) problems() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.probs...)
}

// addSim counts simulated seconds advanced (sessions, branches, replays).
func (b *bench) addSim(s float64) {
	b.mu.Lock()
	b.simS += s
	b.mu.Unlock()
}

func (b *bench) simSeconds() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.simS
}

func (b *bench) startPhase() {
	if b.traced && b.rig != nil {
		b.startCounters = b.rig.counters()
	}
	b.mu.Lock()
	b.simS = 0
	b.mu.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&b.ms0)
}

func (b *bench) endPhase() {
	runtime.ReadMemStats(&b.ms1)
	if b.traced && b.rig != nil {
		b.endCounters = b.rig.counters()
	}
}

// endToEnd derives the end-to-end metrics of an untraced run. The rate
// is per process CPU second: on a VM whose host steals CPU time it moves
// with the program's work, not with the host's load (see README).
func (b *bench) endToEnd(cpu, setupS float64) map[string]metric {
	all, kinds := b.rec.latencies()
	logSum := 0.0
	for _, k := range kinds {
		logSum += math.Log(median(k))
	}
	geo := 0.0
	if len(kinds) > 0 {
		geo = math.Exp(logSum / float64(len(kinds)))
	}
	return map[string]metric{
		"setup_s":             {setupS, "s"},
		"cpu_ms_per_op":       {1000 * cpu / float64(len(all)), "ms"},
		"kind_p50_geomean_ms": {geo, "ms"},
	}
}

// wallFigures are the wall-clock figures of a run: successful operations
// and simulated seconds per host second and the p99 latency. They carry
// the host's CPU steal, so they are printed, and reported by the traced
// run, but not gated.
func (b *bench) wallFigures(wall float64) map[string]metric {
	all, _ := b.rec.latencies()
	return map[string]metric{
		"ops_per_s":        {float64(len(all)) / wall, "1/s"},
		"p99_ms":           {quantile(all, 0.99), "ms"},
		"sim_s_per_host_s": {b.simSeconds() / wall, "1"},
	}
}

// recorder counts and times the workload's operations by kind.
type recorder struct {
	tr    *tracer
	next  atomic.Int64
	mu    sync.Mutex
	kinds map[string]*kindStat
	// mayFail names the kinds whose failures are known faults of the
	// program; a failure of any other kind fails the run's checks.
	mayFail map[string]bool
	// geoSkip names further kinds left out of kind_p50_geomean_ms.
	geoSkip map[string]bool
	// threadCPU also times each operation in CPU time of the OS thread
	// it runs on, for operations that do all their work in the calling
	// goroutine; kind_p50_geomean_ms then uses those times.
	threadCPU bool
	errs      []string
}

type kindStat struct {
	attempted, failed int
	ms, cpuMS         []float64
}

func newRecorder() *recorder {
	return &recorder{kinds: map[string]*kindStat{}, mayFail: map[string]bool{}, geoSkip: map[string]bool{}}
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.kinds = map[string]*kindStat{}
	r.errs = nil
	r.mu.Unlock()
}

// op runs and times one operation of the given kind. In a traced run it
// mints an operation ID, carries it in ctx (the HTTP transports put it on
// the wire) and records the operation's span.
func (r *recorder) op(ctx context.Context, kind string, fn func(ctx context.Context) error) error {
	var id string
	if r.tr != nil {
		id = fmt.Sprintf("op-%d", r.next.Add(1))
		ctx = withOp(ctx, id, kind)
	}
	var c0 time.Duration
	if r.threadCPU {
		runtime.LockOSThread()
		c0 = threadCPU()
	}
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	var c time.Duration
	if r.threadCPU {
		c = threadCPU() - c0
		runtime.UnlockOSThread()
	}
	if r.tr != nil {
		r.tr.add(span{Op: id, Kind: kind, Layer: "client", Name: kind, Start: t0, Dur: d, Err: err != nil})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.kinds[kind]
	if ks == nil {
		ks = &kindStat{}
		r.kinds[kind] = ks
	}
	ks.attempted++
	if err != nil {
		ks.failed++
		if !r.mayFail[kind] && len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return err
	}
	ks.ms = append(ks.ms, float64(d.Nanoseconds())/1e6)
	if r.threadCPU {
		ks.cpuMS = append(ks.cpuMS, float64(c.Nanoseconds())/1e6)
	}
	return nil
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// unexpected lists failures of operations that must not fail.
func (r *recorder) unexpected() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errs...)
}

// latencies returns every successful latency and the per-kind lists of
// kind_p50_geomean_ms (thread CPU times with threadCPU set). The kinds of
// known faults (mayFail) are left out of the per-kind lists, so that
// mending a fault changes the failed count and the operation count but
// not the set of kinds averaged; so are the kinds in geoSkip.
func (r *recorder) latencies() (all []float64, kinds [][]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names() {
		ks := r.kinds[name]
		all = append(all, ks.ms...)
		per := ks.ms
		if r.threadCPU {
			per = ks.cpuMS
		}
		if len(per) > 0 && !r.mayFail[name] && !r.geoSkip[name] {
			kinds = append(kinds, per)
		}
	}
	return all, kinds
}

func (r *recorder) kind(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ks := r.kinds[name]; ks != nil {
		return append([]float64(nil), ks.ms...)
	}
	return nil
}

func (r *recorder) names() []string {
	names := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// printCounts writes the attempted/failed table and returns the totals.
func (r *recorder) printCounts(w io.Writer) (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names() {
		ks := r.kinds[name]
		fmt.Fprintf(w, "op %-17s attempted=%-6d failed=%-6d p10_ms=%-9.4f p50_ms=%-9.4f p99_ms=%-9.3f max_ms=%.3f\n",
			name, ks.attempted, ks.failed, quantile(ks.ms, 0.1), median(ks.ms), quantile(ks.ms, 0.99), quantile(ks.ms, 1))
		attempted += ks.attempted
		failed += ks.failed
	}
	return attempted, failed
}

// clients runs fn for each of the two closed-loop clients concurrently
// and returns the first error.
func clients(fn func(c int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- spans ---

type opKey struct{}

type opTag struct{ id, kind string }

func withOp(ctx context.Context, id, kind string) context.Context {
	return context.WithValue(ctx, opKey{}, opTag{id, kind})
}

func opFrom(ctx context.Context) (opTag, bool) {
	t, ok := ctx.Value(opKey{}).(opTag)
	return t, ok
}

// span is one timed call into a layer, recorded from the benchmark's own
// files. Op links the spans of one operation; Kind is the operation kind.
type span struct {
	Op    string        `json:"op,omitempty"`
	Kind  string        `json:"kind,omitempty"`
	Layer string        `json:"layer"`
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Bytes int64         `json:"bytes,omitempty"`
	Err   bool          `json:"err,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (b *bench) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range b.tr.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- statistics ---

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated order statistic (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// promSum adds every sample of a metric family in Prometheus text.
func promSum(text, family string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		var v float64
		if _, err := fmt.Sscan(f[len(f)-1], &v); err == nil {
			total += v
		}
	}
	return total
}
