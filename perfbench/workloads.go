package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"ferrum/internal/compose"
	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/rodinia"
)

// samples is the per-campaign sample budget: a quarter of the paper's (and
// reprod's default) 1000, so that a run samples every step of a workload
// often enough for its fastest time to be steady (README: "Bounds and host
// noise").
const samples = 250

const memSize = 1 << 20

// workload is one named load. run performs one iteration; probe, if set,
// runs after a traced iteration and times the engines directly for
// per-layer throughput the iteration itself does not expose.
type workload struct {
	name  string
	cells int // cells one iteration attempts
	run   func(it *iteration) error
	probe func(it *iteration) (map[string]float64, error)
}

var workloads = map[string]*workload{
	"protected-suite": {name: "protected-suite", cells: 136, run: protectedSuite, probe: probeEngines},
	"modes-rerun":     {name: "modes-rerun", cells: 64, run: modesRerun},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// protectedSuite is the paper product on protected code only: the
// build- and golden-run experiments through the harness on one BuildCache,
// then IR-level campaigns on the IR-EDDI protected modules and monolithic
// checkpointed asm campaigns on the sixteen FERRUM and hybrid cells.
// Set-up is everything before the first fault plan: instance generation,
// the experiments, and the campaign cells' builds and golden runs.
func protectedSuite(it *iteration) error {
	cache := harness.NewBuildCache()
	opts := harness.Options{
		Samples: samples, Seed: it.seed, Scale: 1,
		Workers: 1, CellWorkers: 1,
		Cache: cache, Obs: it.ob,
	}
	opts.Progress = func(ev harness.CellEvent) {
		if !ev.Done {
			return
		}
		it.attempted++
		it.plans += ev.Injections
		it.walls = append(it.walls, float64(ev.Wall.Microseconds())/1e3)
		it.lap()
		if ev.Err != nil {
			it.fail("%s/%s: %v", ev.Experiment, ev.Cell, ev.Err)
		}
	}
	exp := func(name string, f func() error) error {
		defer it.span("exp."+name, "harness")()
		t := time.Now()
		err := f()
		it.addTime("harness.exp."+name+"_s", time.Since(t))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	it.render("table1", harness.RenderTable1, nil)
	if err := exp("table2", func() error {
		rows, err := harness.Table2(opts)
		it.render("table2", func() string { return harness.RenderTable2(rows) }, nil)
		return err
	}); err != nil {
		return err
	}
	if err := exp("profile", func() error {
		rows, err := harness.Profile(opts)
		it.render("profile", func() string { return harness.RenderProfile(rows) }, nil)
		return err
	}); err != nil {
		return err
	}
	if err := exp("fig11", func() error {
		rows, err := harness.Fig11(opts)
		it.render("fig11", func() string { return harness.RenderFig11(rows) }, nil)
		return err
	}); err != nil {
		return err
	}
	if err := exp("exectime", func() error {
		rows, err := harness.ExecTime(opts)
		// The transform time column and the average line are host wall
		// clock; the digest covers every other cell of the table.
		masked := append([]harness.ExecTimeRow(nil), rows...)
		for i := range masked {
			masked[i].Duration = 0
		}
		it.render("exectime", func() string { return harness.RenderExecTime(rows) },
			func() string { return harness.RenderExecTime(masked) })
		return err
	}); err != nil {
		return err
	}
	if err := exp("variation", func() error {
		rows, err := harness.Variation(opts, 5)
		it.render("variation", func() string { return harness.RenderVariation(rows) }, nil)
		return err
	}); err != nil {
		return err
	}
	cells, err := setupCells(it, harness.Hybrid, harness.Ferrum)
	if err != nil {
		return err
	}
	it.markSetup()
	if it.setupOnly {
		return nil
	}
	if err := irEDDI(it); err != nil {
		return err
	}
	var b strings.Builder
	for _, c := range cells {
		res, ok := it.asmCampaign("fi", c, fi.Campaign{})
		if !ok {
			continue
		}
		it.countResult("asm.", c.name(), res)
		renderCell(&b, c, res)
	}
	it.table("campaigns", b.String())

	cs := cache.Stats()
	it.count("harness.builds", float64(cs.BuildMisses))
	it.count("harness.cache_build_hits", float64(cs.BuildHits))
	it.count("harness.cache_golden_hits", float64(cs.GoldenHits))
	it.count("harness.cache_golden_misses", float64(cs.GoldenMisses))
	it.count("harness.cells", float64(it.attempted))
	it.count("fi.plans", float64(it.plans))
	it.count("fi.plans_executed", float64(it.plans))
	return nil
}

func isIRCell(name string) bool { return strings.HasSuffix(name, "/ir-prot") }

// irEDDI runs an IR-level campaign on every benchmark's IR-EDDI protected
// module (the gap experiment's "ir-prot" cells).
func irEDDI(it *iteration) error {
	defer it.span("exp.ir-eddi", "harness")()
	var b strings.Builder
	for _, bench := range rodinia.All() {
		inst, err := bench.Instantiate(1, it.seed)
		if err != nil {
			return err
		}
		end := it.span("build", "harness")
		prot, err := harness.BuildTechniqueOpts(inst.Mod, harness.IREDDI, harness.BuildOptions{})
		end()
		if err != nil {
			return fmt.Errorf("%s/%s: build: %w", bench.Name, harness.IREDDI, err)
		}
		it.count("harness.builds", 1)
		tgt := fi.IRTarget{
			Mod: prot.ProtectedIR, MemSize: memSize, Args: inst.Args,
			Setup: func(w fi.MemWriter) error { return inst.Setup(w) },
		}
		name := bench.Name + "/ir-prot"
		res, ok := it.campaign("fi", name, fi.Campaign{}, func(c fi.Campaign) (fi.Result, error) { return fi.RunIRCampaign(tgt, c) })
		if !ok {
			continue
		}
		it.countResult("ir.", name, res)
		fmt.Fprintf(&b, "== %s\n", name)
		harness.RenderCampaign(&b, string(harness.IREDDI), "ir", res)
	}
	it.table("ir-eddi", b.String())
	return nil
}

// render times one table render. digest, if non-nil, renders the variant
// that is digested (host-timed fields masked); otherwise the table itself
// is. Rendering happens even for a failed experiment so partial output
// still digests (and mismatches).
func (it *iteration) render(name string, f, digest func() string) {
	end := it.span("render."+name, "harness")
	t := time.Now()
	text := f()
	it.addTime("harness.render_s", time.Since(t))
	end()
	if digest != nil {
		text = digest()
	}
	it.table(name, text)
}

// cell is one (benchmark, technique) build ready to campaign.
type cell struct {
	inst  *rodinia.Instance
	tech  harness.Technique
	build *harness.Build
}

func (c cell) name() string { return c.inst.Bench.Name + "/" + string(c.tech) }

func (c cell) target() fi.AsmTarget {
	return fi.AsmTarget{
		Prog: c.build.Prog, MemSize: memSize, Args: c.inst.Args,
		Setup: func(w fi.MemWriter) error { return c.inst.Setup(w) },
	}
}

// setupCells instantiates the eight Rodinia benchmarks at the iteration's
// seed, builds each under techs, and runs every build's golden run on the
// machine, profiled and then fused from its profile as campaigns run it.
// All builds of one benchmark must print the same output.
func setupCells(it *iteration, techs ...harness.Technique) ([]cell, error) {
	var cells []cell
	for _, b := range rodinia.All() {
		end := it.span("instantiate", "harness")
		inst, err := b.Instantiate(1, it.seed)
		end()
		if err != nil {
			return nil, err
		}
		var want []uint64
		for _, tech := range techs {
			end := it.span("build", "harness")
			build, err := harness.BuildTechniqueOpts(inst.Mod, tech, harness.BuildOptions{})
			end()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: build: %w", b.Name, tech, err)
			}
			it.count("harness.builds", 1)
			g, err := goldenRun(it, inst, build)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, tech, err)
			}
			if want == nil {
				want = g.output
			} else if !reflect.DeepEqual(want, g.output) {
				it.fail("%s/%s: golden output differs from %s's", b.Name, tech, techs[0])
			}
			it.count("machine.golden_insts."+string(tech), float64(g.dyn))
			it.addTime("machine.golden_s."+string(tech), g.dur)
			it.lap()
			cells = append(cells, cell{inst, tech, build})
		}
	}
	return cells, nil
}

type golden struct {
	output []uint64
	dyn    uint64
	dur    time.Duration // the fused run, timed around machine.Run
}

// goldenRun runs a build's golden execution twice on one machine: once
// profiled, then again after fusing from that profile (as a campaign's
// template machine is). Both runs must agree.
func goldenRun(it *iteration, inst *rodinia.Instance, build *harness.Build) (golden, error) {
	defer it.span("golden", "machine")()
	m, err := machine.New(build.Prog, memSize)
	if err != nil {
		return golden{}, err
	}
	if err := inst.Setup(m); err != nil {
		return golden{}, err
	}
	prof := m.Run(machine.RunOpts{Args: inst.Args, Profile: true})
	if prof.Outcome != machine.OutcomeOK {
		return golden{}, fmt.Errorf("golden run: %v (%s)", prof.Outcome, prof.CrashMsg)
	}
	m.FuseProfile(prof.Profile)
	t := time.Now()
	r := m.Run(machine.RunOpts{Args: inst.Args})
	d := time.Since(t)
	if r.Outcome != machine.OutcomeOK || !reflect.DeepEqual(r.Output, prof.Output) || r.DynInsts != prof.DynInsts {
		return golden{}, fmt.Errorf("fused golden run disagrees with the profiled one (%v)", r.Outcome)
	}
	return golden{r.Output, r.DynInsts, d}, nil
}

// campaign runs one campaign as a single serial cell: run receives c with
// the sample budget, seed, one worker and (when traced) the program's
// observer filled in. Errors fail the cell; the workload carries on.
func (it *iteration) campaign(layer, name string, c fi.Campaign, run func(fi.Campaign) (fi.Result, error)) (fi.Result, bool) {
	c.Samples, c.Seed, c.Workers = samples, it.seed, 1
	if it.ob != nil {
		c.Obs = it.ob.Cell(name, 1)
	}
	it.attempted++
	end := it.span("campaign "+name, layer)
	t := time.Now()
	res, err := run(c)
	d := time.Since(t)
	end()
	it.addTime("fi.campaign_s", d)
	if layer != "fi" {
		it.addTime(layer+".campaign_s", d)
	}
	if isIRCell(name) {
		it.addTime("ir.campaign_s", d)
	}
	it.walls = append(it.walls, float64(d.Microseconds())/1e3)
	it.lap()
	if err != nil {
		it.fail("%s (%s): %v", name, layer, err)
		return res, false
	}
	it.plans += res.Samples
	return res, true
}

// asmCampaign runs c's assembly-level campaign with the given mode settings.
func (it *iteration) asmCampaign(layer string, c cell, camp fi.Campaign) (fi.Result, bool) {
	tgt := c.target()
	return it.campaign(layer, c.name(), camp, func(camp fi.Campaign) (fi.Result, error) { return fi.RunAsmCampaign(tgt, camp) })
}

func renderCell(b *strings.Builder, c cell, res fi.Result) {
	fmt.Fprintf(b, "== %s\n", c.name())
	harness.RenderCampaign(b, string(c.tech), "asm", res)
}

// modesRerun runs the sixteen hybrid and FERRUM asm cells in four phases:
// prune=full into a fresh on-disk journal, compose=on against an empty
// section cache, the same composed campaigns against the now-warm cache,
// and a resume from phase 1's journal cut at two thirds of its length (a
// simulated crash). Warm and resumed results must equal cold and fresh ones.
func modesRerun(it *iteration) error {
	cells, err := setupCells(it, harness.Hybrid, harness.Ferrum)
	if err != nil {
		return err
	}
	it.markSetup()
	if it.setupOnly {
		return nil
	}
	path := filepath.Join(it.workdir, fmt.Sprintf("modes-rerun-%d.journal", os.Getpid()))
	defer os.Remove(path)
	meta := fi.JournalMeta{Tool: "perfbench", Exp: "modes-rerun", Seed: it.seed, Samples: samples, Prune: fi.PruneFull.String()}
	key := func(c cell) string { return "modes-rerun/" + c.name() }

	// Phase 1: pruned campaigns, journaled through a sink that times
	// every flush and fsync.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	end := it.span("journal.create", "journal")
	j, err := fi.NewStreamJournal(&timedSink{f: f, it: it}, meta)
	end()
	if err != nil {
		f.Close()
		return err
	}
	var b strings.Builder
	fresh := make([]*fi.Result, len(cells))
	for i, c := range cells {
		res, ok := it.asmCampaign("prune", c, fi.Campaign{Prune: fi.PruneFull, Journal: j, Key: key(c)})
		if !ok {
			continue
		}
		fresh[i] = &res
		it.countResult("prune.", c.name(), res)
		pr := res.Pruned
		it.count("prune.executed", float64(pr.Executed))
		it.count("prune.dead", float64(pr.Dead))
		it.count("prune.masked", float64(pr.Masked))
		it.count("prune.deduped", float64(pr.Deduped))
		it.count("fi.plans_executed", float64(pr.Executed))
		renderCell(&b, c, res)
		fmt.Fprintf(&b, "pruned (%s): planned %d, executed %d, dead %d, masked %d, deduped %d, classes %d\n",
			pr.Mode, pr.Planned, pr.Executed, pr.Dead, pr.Masked, pr.Deduped, pr.Classes)
	}
	end = it.span("journal.close", "journal")
	err = j.Close()
	end()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	it.table("prune", b.String())
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	it.count("journal.bytes", float64(len(data)))
	it.count("journal.records", float64(bytes.Count(data, []byte("\n"))))

	// Phases 2 and 3: composed campaigns against an empty, then a warm,
	// section cache.
	sections := compose.NewCache()
	b.Reset()
	cold := make([]*fi.Result, len(cells))
	t := time.Now()
	for i, c := range cells {
		res, ok := it.asmCampaign("compose", c, fi.Campaign{Compose: fi.ComposeOn, SectionCache: sections})
		if !ok {
			continue
		}
		cold[i] = &res
		it.countResult("compose.", c.name(), res)
		cs := res.Composed
		it.count("compose.sections", float64(cs.Sections))
		it.count("compose.fallbacks", float64(cs.Fallbacks))
		it.count("compose.section_rows", float64(len(cs.Rows)))
		renderCell(&b, c, res)
		fmt.Fprintf(&b, "composed: %d plans, %d at section boundaries, %d fallbacks, %d sections\n",
			cs.Composed, cs.Sections, cs.Fallbacks, len(cs.Rows))
	}
	it.addTime("compose.cold_s", time.Since(t))
	it.table("compose", b.String())
	st0 := sections.CacheStats()
	it.count("compose.cold_section_misses", float64(st0.SectionMisses))
	t = time.Now()
	for i, c := range cells {
		res, ok := it.asmCampaign("compose", c, fi.Campaign{Compose: fi.ComposeOn, SectionCache: sections})
		if !ok {
			continue
		}
		if cold[i] != nil && !sameOutcome(*cold[i], res) {
			it.fail("%s: warm-cache composed result differs from the cold one", c.name())
		}
	}
	it.addTime("compose.warm_s", time.Since(t))
	st1 := sections.CacheStats()
	served := st1.PlansServed - st0.PlansServed
	if served != len(cells)*samples {
		it.fail("warm section cache served %d plans, want every one of %d", served, len(cells)*samples)
	}
	it.count("compose.plans_served", float64(served))
	it.count("compose.warm_section_hits", float64(st1.SectionHits-st0.SectionHits))
	// Cold composed plans all executed (to their boundary or end to end);
	// warm ones executed only where the cache could not serve them.
	it.count("fi.plans_executed", float64(2*len(cells)*samples-served))

	// Phase 4: resume from phase 1's journal, cut mid-run.
	t = time.Now()
	if err := os.Truncate(path, int64(len(data))*2/3); err != nil {
		return err
	}
	end = it.span("journal.resume", "journal")
	tl := time.Now()
	st, rj, err := fi.ResumeJournal(path)
	it.addTime("journal.load_s", time.Since(tl))
	end()
	if err != nil {
		return err
	}
	if err := st.Meta.Check(meta); err != nil {
		rj.Close()
		return err
	}
	complete, partial := st.Cells()
	it.count("journal.resume_complete_cells", float64(complete))
	it.count("journal.resume_partial_cells", float64(partial))
	for i, c := range cells {
		prior := st.Cell(key(c))
		res, ok := it.asmCampaign("fi", c, fi.Campaign{Prune: fi.PruneFull, Journal: rj, Key: key(c), Prior: prior})
		if !ok {
			continue
		}
		if fresh[i] != nil && !sameOutcome(*fresh[i], res) {
			it.fail("%s: journal-resumed result differs from the fresh one", c.name())
		}
		replayed := 0
		switch {
		case prior == nil:
		case prior.Result != nil:
			replayed = res.Pruned.Executed
		default:
			replayed = len(prior.Plans)
		}
		it.count("journal.replayed_plans", float64(replayed))
		it.count("fi.plans_executed", float64(res.Pruned.Executed-replayed))
	}
	end = it.span("journal.close", "journal")
	err = rj.Close()
	end()
	if err != nil {
		return fmt.Errorf("resumed journal: %w", err)
	}
	final, err := fi.LoadJournal(path)
	if err != nil {
		return err
	}
	if complete, _ := final.Cells(); complete != len(cells) {
		it.fail("resumed journal holds %d complete cells, want %d", complete, len(cells))
	}
	it.addTime("journal.resume_s", time.Since(t))
	return nil
}

// sameOutcome compares a warm or resumed result with the cold or fresh one
// on everything a table or ledger shows. Checkpoint activity is left out:
// such a campaign restores snapshots only for the plans it re-runs.
func sameOutcome(a, b fi.Result) bool {
	a.Checkpoint, b.Checkpoint = fi.CheckpointSummary{}, fi.CheckpointSummary{}
	return reflect.DeepEqual(a, b)
}

// timedSink is the journal's file, with every flush and fsync timed as a
// journal span.
type timedSink struct {
	f  *os.File
	it *iteration
}

func (s *timedSink) Write(p []byte) (int, error) {
	defer s.time("journal.write")()
	return s.f.Write(p)
}

func (s *timedSink) Sync() error {
	defer s.time("journal.sync")()
	return s.f.Sync()
}

func (s *timedSink) Close() error { return s.f.Close() }

func (s *timedSink) time(name string) func() {
	end := s.it.span(name, "journal")
	t := time.Now()
	return func() {
		s.it.addTime("journal.write_s", time.Since(t))
		end()
	}
}

// probeEngines times the engines protected-suite reaches only inside harness
// experiments: a fused golden run of every raw, hybrid and FERRUM build on
// the machine, and a golden run of every raw and IR-EDDI module on the IR
// interpreter.
func probeEngines(it *iteration) (map[string]float64, error) {
	probe := &iteration{seed: it.seed}
	if _, err := setupCells(probe, harness.Raw, harness.Hybrid, harness.Ferrum); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, tech := range []harness.Technique{harness.Raw, harness.Hybrid, harness.Ferrum} {
		out["machine.minsts_per_s."+techKey(tech)] =
			probe.counts["machine.golden_insts."+string(tech)] / probe.times["machine.golden_s."+string(tech)] / 1e6
	}
	var steps uint64
	var d time.Duration
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, it.seed)
		if err != nil {
			return nil, err
		}
		prot, err := harness.BuildTechniqueOpts(inst.Mod, harness.IREDDI, harness.BuildOptions{})
		if err != nil {
			return nil, err
		}
		for _, mod := range []*ir.Module{inst.Mod, prot.ProtectedIR} {
			ip, err := ir.NewInterp(mod, memSize)
			if err != nil {
				return nil, err
			}
			if err := inst.Setup(ip); err != nil {
				return nil, err
			}
			t := time.Now()
			r := ip.Run(ir.RunOpts{Args: inst.Args})
			d += time.Since(t)
			if r.Outcome != ir.OutcomeOK {
				return nil, fmt.Errorf("%s: IR golden run: %v (%s)", b.Name, r.Outcome, r.CrashMsg)
			}
			steps += r.Steps
		}
	}
	out["ir.minsts_per_s"] = float64(steps) / d.Seconds() / 1e6
	return out, nil
}

func techKey(t harness.Technique) string {
	if t == harness.Hybrid {
		return "hybrid"
	}
	return string(t)
}
