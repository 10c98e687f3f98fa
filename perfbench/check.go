package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// iteration is one pass of a workload: what it did, what it produced and
// what went wrong. Workload code fills it; bench.iterate times it.
type iteration struct {
	seed    int64
	workdir string
	tr      *tracer       // nil when untraced
	ob      *obs.Observer // the program's own observer, traced runs only
	start   time.Time
	// setupOnly stops the workload right after set-up (extra setup_s
	// samples for runs that fit a single iteration).
	setupOnly bool

	setup     time.Duration
	wall      time.Duration
	cpu       float64
	allocMB   float64
	gcCycles  int
	plans     int // planned fault plans, Σ Result.Samples
	attempted int // cells attempted
	problems  []string

	// tables holds each rendered table as digested (host-timed fields
	// masked); counts holds exact counts read from public results, which
	// must repeat at one seed; traceCounts the program's own obs counters
	// (traced iterations only).
	tables      map[string]string
	counts      map[string]float64
	traceCounts map[string]float64

	mu    sync.Mutex
	times map[string]float64 // per-layer timings, summed
	walls []float64          // per-cell wall-clock, ms

	// laps cuts the iteration into steps, one per cell, build or campaign
	// and one for the rest; the first setupLaps of them are set-up. The
	// steps come in the same order in every iteration of a workload.
	laps      []lap
	setupLaps int
	lapAt     time.Time
	lapCPU    float64
}

// lap is one step of an iteration: its wall-clock and CPU seconds.
type lap struct{ wall, cpu float64 }

// lap ends the current step. Safe for the goroutines harness progress
// callbacks run on.
func (it *iteration) lap() {
	it.mu.Lock()
	defer it.mu.Unlock()
	now, cpu := time.Now(), cpuSeconds()
	if it.lapAt.IsZero() {
		it.lapAt = it.start
	}
	it.laps = append(it.laps, lap{now.Sub(it.lapAt).Seconds(), cpu - it.lapCPU})
	it.lapAt, it.lapCPU = now, cpu
}

// markSetup ends the set-up phase: everything before the first fault plan.
func (it *iteration) markSetup() {
	it.lap()
	it.setupLaps = len(it.laps)
	it.setup = time.Since(it.start)
}

func (it *iteration) fail(format string, args ...any) {
	it.mu.Lock()
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
	it.mu.Unlock()
}

// span opens a benchmark-side span around a call into a layer; the
// returned function closes it. Untraced iterations record nothing.
func (it *iteration) span(name, layer string) func() {
	return it.tr.begin(name, layer)
}

// addTime accumulates a per-layer timing in seconds. Safe for the
// campaign worker goroutines that journal sinks run on.
func (it *iteration) addTime(name string, d time.Duration) {
	it.mu.Lock()
	if it.times == nil {
		it.times = map[string]float64{}
	}
	it.times[name] += d.Seconds()
	it.mu.Unlock()
}

func (it *iteration) count(name string, v float64) {
	if it.counts == nil {
		it.counts = map[string]float64{}
	}
	it.counts[name] += v
}

func (it *iteration) table(name, text string) {
	if it.tables == nil {
		it.tables = map[string]string{}
	}
	it.tables[name] = text
}

// countResult adds one campaign result's exact counts under prefix and
// checks that its outcome counts and ledgers add up.
func (it *iteration) countResult(prefix, cell string, res fi.Result) {
	sum := 0
	for _, o := range outcomes {
		sum += res.Count(o)
		it.count(prefix+"outcome."+o.String(), float64(res.Count(o)))
	}
	if sum != res.Samples {
		it.fail("%s: outcome counts sum to %d, want Samples=%d", cell, sum, res.Samples)
	}
	if pr := res.Pruned; pr.Enabled && pr.Planned != pr.Executed+pr.Dead+pr.Masked+pr.Deduped {
		it.fail("%s: prune ledger %d != %d+%d+%d+%d", cell, pr.Planned, pr.Executed, pr.Dead, pr.Masked, pr.Deduped)
	}
	if cs := res.Composed; cs.Enabled && cs.Composed != cs.Sections+cs.Fallbacks {
		it.fail("%s: compose ledger %d != %d+%d", cell, cs.Composed, cs.Sections, cs.Fallbacks)
	}
	it.count(prefix+"plans", float64(res.Samples))
	ck := res.Checkpoint
	it.count(prefix+"restores", float64(ck.Restores))
	it.count(prefix+"cold_starts", float64(ck.ColdStarts))
	it.count(prefix+"skipped_insts", float64(ck.SkippedInsts))
	it.count(prefix+"snapshot_bytes", float64(ck.SnapshotBytes))
	if res.Latency.Unit == "cycles" {
		for _, o := range outcomes {
			h := res.Latency.Hist(o)
			it.count(prefix+"post_fault_cycles", h.Sum)
			if len(h.Counts) > 0 {
				it.count(prefix+"tail_plans", float64(h.Counts[len(h.Counts)-1]))
			}
		}
	}
}

var outcomes = []fi.Outcome{fi.Benign, fi.SDC, fi.Detected, fi.Crash, fi.Hang}

// observeProgram copies the program's own obs counters into traceCounts:
// every counter and histogram that counts work rather than time.
func (it *iteration) observeProgram() {
	if it.ob == nil {
		return
	}
	snap := it.ob.Reg.Snapshot()
	it.traceCounts = map[string]float64{}
	for k, v := range snap.Counters {
		if k != obs.MCellWallUS {
			it.traceCounts[k] = float64(v)
		}
	}
	for k, h := range snap.Hists {
		if k == obs.HCellWallMS {
			continue
		}
		it.traceCounts[k+".count"] = float64(h.Count)
		it.traceCounts[k+".sum"] = h.Sum
		if n := len(h.Counts); n > 0 {
			it.traceCounts[k+".inf"] = float64(h.Counts[n-1])
		}
	}
}

func (it *iteration) digests() map[string]string {
	out := map[string]string{}
	for k, v := range it.tables {
		sum := sha256.Sum256([]byte(v))
		out[k] = hex.EncodeToString(sum[:])
	}
	return out
}

// writeTables stores the digested tables, in name order, for inspection.
func (it *iteration) writeTables(path string) error {
	var b strings.Builder
	for _, k := range unionKeys(it.tables, nil) {
		fmt.Fprintf(&b, "### %s\n%s\n", k, it.tables[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// expectedWorkload is what one workload produced at the recorded seed.
type expectedWorkload struct {
	Digests     map[string]string  `json:"digests"`
	Counts      map[string]float64 `json:"counts"`
	TraceCounts map[string]float64 `json:"trace_counts"`
}

type expectedFile map[string]expectedWorkload

func loadExpected(path string) (expectedFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return expectedFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e expectedFile) save(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checker compares each iteration against the recorded values (at the
// recorded seed) and against the run's first iteration (at any seed); a
// traced iteration's program counters are compared with the run's first
// traced iteration's.
type checker struct {
	name        string
	want        *expectedWorkload // nil: nothing recorded to compare against
	recorded    bool              // compare against want at all
	first       *iteration
	firstTraced *iteration
}

func newChecker(name string, e expectedFile, atRecordedSeed bool) *checker {
	c := &checker{name: name, recorded: atRecordedSeed}
	if w, ok := e[name]; ok {
		c.want = &w
	}
	return c
}

func (c *checker) check(it *iteration) {
	if c.recorded {
		if c.want == nil {
			it.fail("no recorded digests for %s at this seed: run with -record", c.name)
		} else {
			diffDigests(it, "recorded", c.want.Digests, it.digests())
			diffCounts(it, "recorded", c.want.Counts, it.counts)
			if it.traceCounts != nil {
				diffCounts(it, "recorded traced", c.want.TraceCounts, it.traceCounts)
			}
		}
	}
	if it.traceCounts != nil {
		if c.firstTraced == nil {
			c.firstTraced = it
		} else {
			diffCounts(it, "first traced iteration", c.firstTraced.traceCounts, it.traceCounts)
		}
	}
	if c.first == nil {
		c.first = it
		return
	}
	diffDigests(it, "first iteration", c.first.digests(), it.digests())
	diffCounts(it, "first iteration", c.first.counts, it.counts)
}

func diffDigests(it *iteration, against string, want, got map[string]string) {
	for _, k := range unionKeys(want, got) {
		if want[k] != got[k] {
			it.fail("table %q digest %.12s differs from %s %.12s", k, got[k], against, want[k])
		}
	}
}

func diffCounts(it *iteration, against string, want, got map[string]float64) {
	var drift []string
	for _, k := range unionKeys(want, got) {
		w, okw := want[k]
		g, okg := got[k]
		if okw != okg || w != g {
			drift = append(drift, fmt.Sprintf("%s=%v (%s %v)", k, g, against, w))
		}
	}
	if len(drift) > 0 {
		it.fail("exact counts drifted: %s", strings.Join(drift, ", "))
	}
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
