// Command perfbench runs one seeded workload against the AVFS program in
// process and prints its metrics. Run it through run.py from the root of
// the repository:
//
//	python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same workload runs with the
// benchmark's spans recorded and the object holds the per-layer metrics.
// README.md lists the workloads, the metrics and the layer each one
// belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// benchWorkload is one benchmark workload: setup builds the program and its
// inputs, round runs one whole round of the fixed operation list, finish
// runs the checks that need the timed phase to be over.
type benchWorkload interface {
	setup(b *bench) error
	round(b *bench) error
	finish(b *bench) error
	close()
}

var workloads = map[string]func() benchWorkload{
	"serve-mix":      func() benchWorkload { return &serveMix{} },
	"fleet-advance":  func() benchWorkload { return &fleetAdvance{} },
	"whatif-fanout":  func() benchWorkload { return &whatifFanout{} },
	"paper-campaign": func() benchWorkload { return &paperCampaign{} },
}

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median. Only the last set-up is kept for the timed phase.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload name (serve-mix, fleet-advance, whatif-fanout, paper-campaign)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs, in whole rounds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := run(*name, mk, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, mk func() benchWorkload, seed int64, seconds float64, traced bool) error {
	fmt.Printf("workload=%s seed=%d num_cpu=%d gomaxprocs=%d go=%s trace=%v\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), traced)

	var w benchWorkload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		b := newBench(seed, traced)
		// Each set-up starts from a collected heap, so it does not pay
		// for the garbage of the one before, and is timed in process CPU
		// seconds, like the timed phase.
		runtime.GC()
		cpu0 := cpuSeconds()
		if err := w.setup(b); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		// One untimed round fills caches and finishes lazy set-up, as a
		// long-running server would have before it is measured.
		if err := w.round(b); err != nil {
			w.close()
			return fmt.Errorf("warm-up round: %w", err)
		}
		setups = append(setups, cpuSeconds()-cpu0)
		if i == setupRepeats-1 {
			fmt.Printf("setups_cpu_s=%.4f\n", setups)
			defer w.close()
			return measure(name, w, b, seconds, median(setups))
		}
	}
	return nil
}

// measure runs whole rounds until the time is up, then the checks, and
// prints the result line.
func measure(name string, w benchWorkload, b *bench, seconds, setupS float64) error {
	b.rec.reset()
	if b.tr != nil {
		b.tr = &tracer{}
		b.rec.tr = b.tr
		b.lay = newLayers()
	}
	b.startPhase()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(t0).Seconds() < seconds {
		if err := w.round(b); err != nil {
			return fmt.Errorf("round %d: %w", rounds, err)
		}
		rounds++
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	b.endPhase()
	// The checks of finish are not measured work: their operations go to
	// a recorder of their own, untraced.
	timed, tr := b.rec, b.tr
	b.rec, b.tr = newRecorder(), nil
	b.rec.mayFail = timed.mayFail
	err := w.finish(b)
	finishErrs := b.rec.unexpected()
	b.rec, b.tr = timed, tr
	if err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	for _, e := range finishErrs {
		b.fail("check operation failed: %s", e)
	}

	for _, e := range b.rec.unexpected() {
		b.fail("operation failed: %s", e)
	}
	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = b.rec.printCounts(os.Stdout)
	fmt.Printf("rounds=%d wall_s=%.3f cpu_s=%.3f sim_s=%.1f\n", rounds, wall, cpu, b.simSeconds())
	wallFigures := b.wallFigures(wall)
	// Simulated seconds per CPU second is printed, and reported by the
	// traced run, but not gated: a round's simulated seconds per
	// operation are fixed, so it is cpu_ms_per_op seen the other way.
	simPerCPU := b.simSeconds() / cpu
	if b.traced {
		// Derived before the verdict: the attribution check is one of
		// the traced run's checks.
		res.Metrics = b.layerMetrics(wall)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, b.seed))
		if err := b.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		b.tr, b.rec.tr, b.lay = nil, nil, nil
	} else {
		res.Metrics = b.endToEnd(cpu, setupS)
	}
	// The live heap is read last, after a forced GC and after the
	// recorder (and the tracer) dropped their samples, so it measures the
	// program's state, not the benchmark's.
	b.rec.reset()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wallFigures["heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	if b.traced {
		for k, v := range wallFigures {
			res.Metrics["wall."+k] = v
		}
		res.Metrics["sim.sim_s_per_cpu_s"] = metric{simPerCPU, "1"}
	}
	fmt.Printf("figures: ops_per_s=%.6g p99_ms=%.6g sim_s_per_host_s=%.6g sim_s_per_cpu_s=%.6g heap_mb=%.6g\n",
		wallFigures["ops_per_s"].Value, wallFigures["p99_ms"].Value, wallFigures["sim_s_per_host_s"].Value,
		simPerCPU, wallFigures["heap_mb"].Value)
	for _, p := range b.problems() {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res.Correct = len(b.problems()) == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall
// time it does not count time the host's hypervisor stole from the VM.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
