// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the public entry points of each layer (harness,
// machine, ir, fi, prune, compose, the journal), checks every output, and
// prints one JSON result line: end-to-end metrics from untraced runs, or
// per-layer metrics from a traced run.
//
// The load is a closed loop with one client: one campaign cell and one
// campaign worker at a time, a fresh harness.BuildCache per iteration. An
// iteration is one complete pass of the workload; a run repeats iterations
// until -seconds is used up (at least one), each on the next CPU in turn,
// and reports each step's fastest time over them.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload protected-suite -seed 20240624 -seconds 20 -trace 0
//	perfbench -workload modes-rerun -trace 1      # per-layer metrics
//	perfbench -workload modes-rerun -record       # re-record expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ferrum/internal/harness"
)

// minSetupSamples is how many set-up passes a run times at least: runs of
// long workloads fit few iterations, so extra set-up-only passes give
// setup_s's step minima more samples.
const minSetupSamples = 9

func main() {
	// One P: the load is serial, and the runtime's own collector then
	// shares the one CPU instead of borrowing a second, so cpu_s tracks
	// wall_s and a neighbour on the other core does not shift either.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: "+workloadNames())
		seed     = fs.Int64("seed", harness.DefaultSeed, "workload seed: Rodinia instances and fault plans derive from it")
		seconds  = fs.Int("seconds", 10, "measure for this long; at least one iteration always runs")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		workdir  = fs.String("workdir", ".bench_build", "scratch directory for journals and trace output")
		expected = fs.String("expected", "perfbench/expected.json", "recorded table digests and exact counts")
		specPath = fs.String("spec", "BENCHMARK.json", "declared metrics: the names and units a run reports")
		record   = fs.Bool("record", false, "run one untraced and one traced iteration and rewrite -expected for this workload (default seed only)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	exp, err := loadExpected(*expected)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record && *seed != harness.DefaultSeed {
		fmt.Fprintln(stderr, "perfbench: -record only records the default seed")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		w: w, seed: *seed, workdir: *workdir, log: stderr,
		checker:  newChecker(*name, exp, *seed == harness.DefaultSeed && !*record),
		declared: sp.EndToEnd,
		cpus:     allowedCPUs(),
	}
	if *trace == 1 {
		b.declared = sp.PerLayer
	}
	var res result
	switch {
	case *record:
		res, err = b.record(exp, *expected)
	case *trace == 1:
		res, err = b.traced(time.Duration(*seconds) * time.Second)
	default:
		res, err = b.untraced(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json the binary reads: which metrics a run
// reports, and their units.
type spec struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// bench runs one workload at one seed.
type bench struct {
	w       *workload
	seed    int64
	workdir string
	log     io.Writer
	checker *checker
	// declared lists the metrics this run reports: BENCHMARK.json's
	// end_to_end ones, or its per_layer ones in a traced run.
	declared []declaredMetric
	// cpus are the CPUs the process may use; iterations take turns on them.
	cpus []int
	turn int

	attempted, failed int
}

// iterate runs one iteration, timing it from outside, and checks its
// outputs. tr is nil for untraced iterations.
func (b *bench) iterate(tr *tracer) (*iteration, error) {
	b.nextCPU()
	// Every iteration starts from a collected heap, so one iteration's
	// garbage is not charged to the next.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	it := &iteration{seed: b.seed, workdir: b.workdir, tr: tr, start: time.Now(), lapCPU: cpu0}
	if tr != nil {
		it.ob = tr.ob
		tr.epoch = it.start
	}
	endIter := it.span("iteration", "bench")
	err := b.w.run(it)
	endIter()
	it.lap()
	it.wall = time.Since(it.start)
	it.observeProgram()
	it.cpu = cpuSeconds() - cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	it.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	it.gcCycles = int(m1.NumGC - m0.NumGC)
	if err != nil {
		// The workload stopped at its first failing cell: everything it did
		// not reach counts as failed too.
		it.fail("%v", err)
		if it.attempted < b.w.cells {
			it.attempted = b.w.cells
		}
	}
	b.checker.check(it)
	if it.setup == 0 && err == nil {
		return nil, fmt.Errorf("%s: workload never marked the end of set-up", b.w.name)
	}
	failed := len(it.problems)
	if failed > it.attempted {
		failed = it.attempted
	}
	b.attempted += it.attempted
	b.failed += failed
	for _, p := range it.problems {
		fmt.Fprintf(b.log, "perfbench: %s: FAILED: %s\n", b.w.name, p)
	}
	fmt.Fprintf(b.log, "perfbench: %s seed=%d traced=%v wall=%.3fs setup=%.3fs cpu=%.3fs plans=%d cells=%d failed=%d\n",
		b.w.name, b.seed, tr != nil, it.wall.Seconds(), it.setup.Seconds(), it.cpu, it.plans, it.attempted, failed)
	return it, nil
}

// untraced repeats iterations for d and reports the end-to-end metrics.
//
// The host's CPUs each share a core with other tenants, and each of them
// runs up to 2× slower for spells of a few seconds while its neighbour is
// busy. So successive iterations run on successive allowed CPUs, and each
// metric is taken step by step: wall_s is the sum over an iteration's steps
// (cells, builds, campaigns) of each step's fastest time in the run, cpu_s
// the same for CPU time, and setup_s for the set-up steps, which the extra
// set-up passes sample too. plans_per_s is an iteration's plans over wall_s.
func (b *bench) untraced(d time.Duration) (result, error) {
	start := time.Now()
	var its, setups []*iteration
	var wall float64
	for {
		it, err := b.iterate(nil)
		if err != nil {
			return result{}, err
		}
		its = append(its, it)
		wall += it.wall.Seconds()
		// Start another iteration only if a typical one still fits.
		if time.Since(start)+time.Duration(wall/float64(len(its))*float64(time.Second)) > d {
			break
		}
	}
	setups = append(setups, its...)
	for len(setups) < minSetupSamples {
		it, err := b.setupOnly()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, it)
	}
	best := fastestLaps(its, false)
	w := sumWall(best)
	var cpu float64
	for _, l := range best {
		cpu += l.cpu
	}
	return b.result(map[string]float64{
		"wall_s":      w,
		"plans_per_s": float64(its[0].plans) / w,
		"setup_s":     sumWall(fastestLaps(setups, true)),
		"cpu_s":       cpu,
		"peak_rss_mb": peakRSSMB(),
	})
}

// fastestLaps is, step by step, the fastest wall-clock and the least CPU
// time any of the iterations took for that step: over all steps, or over
// the set-up steps only. An iteration that stopped early at a failed cell has fewer
// steps and counts only for the steps it ran.
func fastestLaps(its []*iteration, setupOnly bool) []lap {
	var best []lap
	for _, it := range its {
		laps := it.laps
		if setupOnly {
			laps = laps[:it.setupLaps]
		}
		for i, l := range laps {
			if i == len(best) {
				best = append(best, l)
				continue
			}
			best[i].wall = math.Min(best[i].wall, l.wall)
			best[i].cpu = math.Min(best[i].cpu, l.cpu)
		}
	}
	return best
}

func sumWall(laps []lap) float64 {
	var s float64
	for _, l := range laps {
		s += l.wall
	}
	return s
}

// setupOnly runs one extra set-up pass, outside any iteration.
func (b *bench) setupOnly() (*iteration, error) {
	b.nextCPU()
	runtime.GC()
	it := &iteration{seed: b.seed, workdir: b.workdir, start: time.Now(), lapCPU: cpuSeconds(), setupOnly: true}
	if err := b.w.run(it); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
	}
	return it, nil
}

// nextCPU moves the process onto the next allowed CPU, so that a run's
// iterations take turns on every CPU the host gives it.
func (b *bench) nextCPU() {
	if len(b.cpus) < 2 {
		return
	}
	pinProcess(b.cpus[b.turn%len(b.cpus)])
	b.turn++
}

// maxTracedPairs caps how many (untraced, traced) iteration pairs a traced
// run measures the tracing overhead over.
const maxTracedPairs = 3

// traced alternates untraced and traced iterations, up to maxTracedPairs
// pairs while they fit in d (at least one), and reports the per-layer
// metrics of the last traced iteration. The untraced ones are the
// reference for the tracing overhead; successive pairs swap which CPU
// each half runs on.
func (b *bench) traced(d time.Duration) (result, error) {
	start := time.Now()
	var refs, traced []*iteration
	var it *iteration
	var tr *tracer
	for len(traced) < maxTracedPairs {
		b.turn = len(traced)
		ref, err := b.iterate(nil)
		if err != nil {
			return result{}, err
		}
		tr = newTracer()
		if it, err = b.iterate(tr); err != nil {
			return result{}, err
		}
		refs = append(refs, ref)
		traced = append(traced, it)
		if time.Since(start)+ref.wall+it.wall > d {
			break
		}
	}
	var probe map[string]float64
	if b.w.probe != nil {
		var err error
		if probe, err = b.w.probe(it); err != nil {
			return result{}, fmt.Errorf("engine probe: %w", err)
		}
	}
	layers := it.layerMetrics(probe)
	layers["obs.trace_overhead"] = sumWall(fastestLaps(traced, false)) / sumWall(fastestLaps(refs, false))
	self := tr.selfTimes()
	for _, l := range layerNames {
		layers["self_s."+l] = self[l]
	}
	path := fmt.Sprintf("%s/trace-%s-%d.json", b.workdir, b.w.name, b.seed)
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	res, err := b.result(layers)
	if err == nil {
		printLayers(b.log, b.w.name, res.Metrics, path)
	}
	return res, err
}

// record runs one untraced and one traced iteration at the default seed and
// stores their digests and exact counts as the workload's expected values.
func (b *bench) record(exp expectedFile, path string) (result, error) {
	plain, err := b.iterate(nil)
	if err != nil {
		return result{}, err
	}
	traced, err := b.iterate(newTracer())
	if err != nil {
		return result{}, err
	}
	if b.failed > 0 {
		return result{}, fmt.Errorf("not recording: %d failed cells or checks", b.failed)
	}
	if err := plain.writeTables(fmt.Sprintf("%s/tables-%s.txt", b.workdir, b.w.name)); err != nil {
		return result{}, err
	}
	exp[b.w.name] = expectedWorkload{
		Digests:     plain.digests(),
		Counts:      plain.counts,
		TraceCounts: traced.traceCounts,
	}
	if err := exp.save(path); err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: b.attempted, Metrics: map[string]metric{"wall_s": {plain.wall.Seconds(), "s"}}}, nil
}

// result reports the declared metrics, with their declared units, from the
// measured values. A declared metric the run did not measure is an error.
func (b *bench) result(values map[string]float64) (result, error) {
	m := map[string]metric{}
	for _, d := range b.declared {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: BENCHMARK.json declares metric %q, which the benchmark does not measure", b.w.name, d.Name)
		}
		m[d.Name] = metric{v, d.Unit}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// printLayers writes the traced run's per-layer table to the log.
func printLayers(w io.Writer, name string, layers map[string]metric, path string) {
	keys := make([]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench: %s per-layer metrics (spans in %s):\n", name, path)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", k, layers[k].Value, layers[k].Unit)
	}
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
