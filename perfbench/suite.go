package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/classify"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/opt"
	"pathflow/internal/profile"
)

// goldenPath holds the suite's pinned figures at the suite's own input
// streams (seed 0); the benchmark reads it and never writes it.
var goldenPath = filepath.Join("internal", "bench", "testdata", "metrics.golden.json")

// suiteOptions is the pipeline configuration of every suite job: the
// paper's recommended point, every client, the default packed kernel.
func suiteOptions(feasible bool) engine.Options {
	return engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll, Feasible: feasible}
}

// newJobEngine returns the fresh engine each cold job runs on, configured
// like `pathflow analyze` configures one (artifact cache on, memory
// unbounded, no disk tier) with one worker: the traced replay of a job
// is serial, so a serial engine is what makes the replay's stage self
// times add up to the engine's wall time, and what keeps one job's
// timing independent of whatever else shares a small host.
func newJobEngine() *engine.Engine {
	return engine.New(engine.Config{Workers: 1, Cache: true})
}

// suiteProgram is one built-in program with the seed's input streams.
type suiteProgram struct {
	b          *bench.Benchmark
	train, ref []ir.Value
	// refOut/refRet are what the unoptimized program prints and returns
	// on the ref input: the reference every optimized program must
	// reproduce.
	refOut []ir.Value
	refRet ir.Value
	// want are the figures every job of this program must reproduce
	// (taken from the set-up job; at seed 0 on suite-cold also checked
	// against the golden file).
	want figures
}

func (p *suiteProgram) trainOpts() interp.Options {
	return interp.Options{Args: p.b.TrainArgs, Input: &interp.SliceInput{Values: p.train}}
}

func (p *suiteProgram) refOpts() interp.Options {
	return interp.Options{Args: p.b.RefArgs, Input: &interp.SliceInput{Values: p.ref}}
}

// seedStreams returns the program's train and ref input streams for
// seed: the suite's own at seed 0, otherwise streams of the same length
// drawn from seed-derived generator states. Programs never change.
func seedStreams(b *bench.Benchmark, seed uint64) (train, ref []ir.Value) {
	ts, rs := b.TrainSeed, b.RefSeed
	if seed != 0 {
		mix := splitmix64(seed ^ b.TrainSeed*0x9e3779b97f4a7c15)
		ts = mix.next()
		mix = splitmix64(seed ^ b.RefSeed*0x9e3779b97f4a7c15)
		rs = mix.next()
	}
	return bench.InputValues(ts, b.InputLen), bench.InputValues(rs, b.InputLen)
}

// figures are a job's deterministic outputs: graph sizes, path counts
// and the ref-weighted constant counts of the Figure 9 evaluation.
type figures struct {
	TrainPaths, HotPaths          int
	OrigNodes, HPGNodes, RedNodes int
	InfeasibleEdges               int
	TotalDyn                      int64
	ConstDyn, NonlocalDyn         int64
}

// evaluate weighs a pipeline result with the ref profile: TranslateEval
// onto each final graph, then the classify counts (Figure 9).
func evaluate(prog *cfg.Program, train, ref *bl.ProgramProfile, res *engine.ProgramResult) (figures, error) {
	f := figures{TrainPaths: train.TotalPaths()}
	for _, name := range prog.Order {
		fr := res.Funcs[name]
		fn := prog.Funcs[name]
		f.HotPaths += len(fr.Hot)
		f.OrigNodes += fn.G.NumNodes()
		if fr.Qualified() {
			f.HPGNodes += fr.HPG.G.NumNodes()
			f.RedNodes += fr.Red.G.NumNodes()
		} else {
			f.HPGNodes += fn.G.NumNodes()
			f.RedNodes += fn.G.NumNodes()
		}
		if fr.FeasCFG != nil {
			f.InfeasibleEdges += fr.FeasCFG.Count
		}
		if fr.FeasHPG != nil {
			f.InfeasibleEdges += fr.FeasHPG.Count
		}
		ep, err := fr.TranslateEval(ref.Funcs[name])
		if err != nil {
			return f, fmt.Errorf("%s: %w", name, err)
		}
		g := fr.FinalGraph()
		freq := profile.NodeFrequencies(ep, g)
		f.TotalDyn += ep.DynInstrs(g)
		f.ConstDyn += classify.SiteConstDyn(g, fr.FinalSol(), freq, fn.NumVars(), false)
		f.NonlocalDyn += classify.SiteConstDyn(g, fr.FinalSol(), freq, fn.NumVars(), true)
	}
	return f, nil
}

// goldenFigures mirrors the golden file's per-program record.
type goldenFigures struct {
	TrainPaths    int   `json:"train_paths"`
	HotAt97       int   `json:"hot_at_97"`
	OrigNodes     int   `json:"orig_nodes"`
	HPGNodes      int   `json:"hpg_nodes"`
	RedNodes      int   `json:"red_nodes"`
	TotalDyn      int64 `json:"total_dyn"`
	ConstDyn0     int64 `json:"const_dyn_0"`
	ConstDyn97    int64 `json:"const_dyn_97"`
	NonlocalDyn0  int64 `json:"nonlocal_dyn_0"`
	NonlocalDyn97 int64 `json:"nonlocal_dyn_97"`
}

func loadGolden() (map[string]goldenFigures, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden figures: %w", err)
	}
	var g map[string]goldenFigures
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	return g, nil
}

// baselineDyn returns the CA = 0 constant counts (the golden file's
// *_0 fields): the CFG solution weighted by the ref profile.
func baselineDyn(prog *cfg.Program, ref *bl.ProgramProfile, res *engine.ProgramResult) (all, nonlocal int64) {
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		freq := profile.NodeFrequencies(ref.Funcs[name], fn.G)
		sol := res.Funcs[name].OrigSol
		all += classify.SiteConstDyn(fn.G, sol, freq, fn.NumVars(), false)
		nonlocal += classify.SiteConstDyn(fn.G, sol, freq, fn.NumVars(), true)
	}
	return all, nonlocal
}

// jobArtifacts is everything one cold job produced.
type jobArtifacts struct {
	prog       *cfg.Program
	train, ref *bl.ProgramProfile
	res        *engine.ProgramResult
	fig        figures
}

// coldJob runs one cold job: compile, profiled train run, the full
// pipeline on a fresh engine, profiled ref run, evaluation. With a
// tracer each layer call is a child span of one "job" span.
func coldJob(ctx context.Context, p *suiteProgram, o engine.Options, tr *tracer, id int) (*jobArtifacts, error) {
	root := tr.begin("job", -1, id)
	defer tr.end(root)
	sp := tr.begin("lang.compile", root, id)
	prog, err := lang.Compile(p.b.Source)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin("bl.profile", root, id)
	train, _, err := bl.ProfileProgram(prog, p.trainOpts())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("train run: %w", err)
	}
	sp = tr.begin("engine.analyze", root, id)
	res, err := newJobEngine().AnalyzeProgram(ctx, prog, train, o)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	sp = tr.begin("bl.profile", root, id)
	ref, _, err := bl.ProfileProgram(prog, p.refOpts())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ref run: %w", err)
	}
	sp = tr.begin("eval", root, id)
	fig, err := evaluate(prog, train, ref, res)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("evaluation: %w", err)
	}
	return &jobArtifacts{prog: prog, train: train, ref: ref, res: res, fig: fig}, nil
}

// checkOptimized runs the job's optimized program on the ref input and
// compares what it prints and returns with the unoptimized program.
func checkOptimized(p *suiteProgram, a *jobArtifacts) error {
	op, _ := a.res.OptimizedProgram(opt.PassConst)
	ro := p.refOpts()
	ro.CollectOutput = true
	r, err := interp.Run(op, ro)
	if err != nil {
		return fmt.Errorf("optimized program: %w", err)
	}
	if r.Ret != p.refRet || !slices.Equal(r.Output, p.refOut) {
		return fmt.Errorf("optimized program output differs from the unoptimized program (ret %d vs %d, %d vs %d values)",
			r.Ret, p.refRet, len(r.Output), len(p.refOut))
	}
	return nil
}

// suiteState is one set-up of a suite workload.
type suiteState struct {
	progs  []*suiteProgram
	golden map[string]goldenFigures
}

// setupSuite derives the seed's input streams, runs each unoptimized
// program on its ref input for the reference output, and runs one cold
// job per program, whose figures every later job must reproduce. At
// seed 0 without feasibility the figures must also equal the golden
// file.
func setupSuite(ctx context.Context, seed uint64, o engine.Options) (*suiteState, error) {
	st := &suiteState{}
	checkGolden := seed == 0 && !o.Feasible
	if checkGolden {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		st.golden = g
	}
	for _, b := range bench.All() {
		p := &suiteProgram{b: b}
		p.train, p.ref = seedStreams(b, seed)
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", b.Name, err)
		}
		ro := p.refOpts()
		ro.CollectOutput = true
		r, err := interp.Run(prog, ro)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", b.Name, err)
		}
		p.refOut, p.refRet = r.Output, r.Ret
		a, err := coldJob(ctx, p, o, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if err := checkOptimized(p, a); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		p.want = a.fig
		if checkGolden {
			if err := matchGolden(b.Name, st.golden, a); err != nil {
				return nil, err
			}
		}
		st.progs = append(st.progs, p)
	}
	return st, nil
}

func matchGolden(name string, golden map[string]goldenFigures, a *jobArtifacts) error {
	want, ok := golden[name]
	if !ok {
		return fmt.Errorf("%s: not in %s", name, goldenPath)
	}
	all0, nonlocal0 := baselineDyn(a.prog, a.ref, a.res)
	got := goldenFigures{
		TrainPaths: a.fig.TrainPaths, HotAt97: a.fig.HotPaths,
		OrigNodes: a.fig.OrigNodes, HPGNodes: a.fig.HPGNodes, RedNodes: a.fig.RedNodes,
		TotalDyn: a.fig.TotalDyn, ConstDyn0: all0, ConstDyn97: a.fig.ConstDyn,
		NonlocalDyn0: nonlocal0, NonlocalDyn97: a.fig.NonlocalDyn,
	}
	if got != want {
		return fmt.Errorf("%s: figures differ from %s:\n got %+v\nwant %+v", name, goldenPath, got, want)
	}
	return nil
}

// suiteSetupReps is how many times a run sets up; setup_s is the median.
// Feasible set-ups are long enough to be steady with fewer repetitions.
func suiteSetupReps(feasible bool) int {
	if feasible {
		return 3
	}
	return 5
}

// runSuite runs a suite workload: closed loop, one client, whole rounds
// of the 7 programs in a seeded order until the time is up. Each job is
// timed on its own, in CPU time and wall time, and a calibration runs
// before each job; a round's CPU times are scaled by its calibrations.
// Checks run outside the timed region. req_per_cpu_s is the median over
// rounds of a round's jobs per scaled CPU second, and
// job_cpu_ms.geomean the geometric mean of the programs' median scaled
// job CPU times.
func runSuite(cfg runConfig, tr *tracer, feasible bool) (*outcome, error) {
	ctx := context.Background()
	o := suiteOptions(feasible)
	cal := newCalibrator(suiteSensitivity)
	var st *suiteState
	setup, err := timeSetup(suiteSetupReps(feasible), cal, func() error {
		var err error
		st, err = setupSuite(ctx, cfg.seed, o)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := newOutcome()
	out.values["setup_s"] = median(setup.scaled)
	out.notes = append(out.notes, setup.note())

	rng := splitmix64(cfg.seed)
	order := append([]*suiteProgram(nil), st.progs...)
	perProg := map[string][]float64{}
	var all, raw, wall []float64
	var lc layerCounts
	var rt rtAccum
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var roundRates []float64
	var jobCPU float64 // scaled CPU seconds of all jobs
	for time.Since(start) < budget {
		shuffle(&rng, order)
		w := cal.window()
		round := make([]float64, 0, len(order)) // raw CPU ms of the round's jobs
		for _, p := range order {
			id := out.attempted
			cal.sample()
			before := readRuntime()
			c0, t0 := cpuTime(), time.Now()
			a, err := coldJob(ctx, p, o, tr, id)
			d, c := time.Since(t0), cpuTime()-c0
			rt.add(before, readRuntime())
			out.attempted++
			round = append(round, toMS(c))
			wall = append(wall, toMS(d))
			if err != nil {
				out.fail("%s job %d: %v", p.b.Name, id, err)
				continue
			}
			if a.fig != p.want {
				out.fail("%s job %d: figures %+v differ from the set-up job's %+v", p.b.Name, id, a.fig, p.want)
				continue
			}
			if err := checkOptimized(p, a); err != nil {
				out.fail("%s job %d: %v", p.b.Name, id, err)
				continue
			}
			if tr != nil {
				if err := attribute(ctx, p, a, o, tr, id, &lc); err != nil {
					out.fail("%s job %d: traced replay: %v", p.b.Name, id, err)
				}
			}
		}
		k := cal.scale(w)
		for i, ms := range round {
			perProg[order[i].b.Name] = append(perProg[order[i].b.Name], ms*k)
			all = append(all, ms*k)
			raw = append(raw, ms)
		}
		roundS := sum(round) * k / 1000
		jobCPU += roundS
		roundRates = append(roundRates, float64(len(round))/roundS)
	}
	elapsed := time.Since(start)

	cfg.rss.peak()
	var dyn, nonlocal float64
	meds := make([]float64, 0, len(perProg))
	row := "# job_cpu_ms median by program:"
	for _, p := range st.progs {
		meds = append(meds, median(perProg[p.b.Name]))
		row += fmt.Sprintf(" %s=%.2f", p.b.Name, meds[len(meds)-1])
		dyn += float64(p.want.TotalDyn)
		nonlocal += float64(p.want.NonlocalDyn)
	}
	// The seven programs differ eightfold in cost, so the upper
	// quantiles of the pooled job times fall in whichever program's
	// block their rank lands, and jump between programs as the number
	// of rounds changes. The tail is taken over job times relative to
	// their program's median instead, and reported at the
	// geometric-mean job.
	var rel []float64
	for _, xs := range perProg {
		m := median(xs)
		for _, x := range xs {
			rel = append(rel, x/m)
		}
	}
	sort.Float64s(rel)
	tailRatio, q := tail(rel, 0.99)
	// Every round runs each program once, so rounds are comparable and
	// their median throughput shrugs off a slow stretch.
	out.values["req_per_cpu_s"] = median(roundRates)
	out.values["job_cpu_ms.geomean"] = geomean(meds)
	out.values["const_dyn_pct"] = 100 * nonlocal / dyn
	// On the suite workloads an operation is a job: req_cpu_ms is the
	// per-job CPU time distribution.
	out.values["req_cpu_ms.p50"] = median(all)
	out.values["req_cpu_ms.p99"] = geomean(meds) * tailRatio
	out.notes = append(out.notes, fmt.Sprintf("# %s seed %d: %d jobs in %d rounds; req_cpu_ms.p99 is job_cpu_ms.geomean times %.3f, the p%.1f of job time over its program's median (the highest quantile up to p99 leaving ten samples beyond, never below the median)",
		cfg.workload, cfg.seed, len(all), len(roundRates), tailRatio, 100*q))
	out.notes = append(out.notes, row, cal.note())
	out.notes = append(out.notes, fmt.Sprintf("# unscaled: job CPU ms p50 %.2f; wall clock: %.2f jobs/s over the load (checks and calibration included), job ms p50 %.2f, CPU per wall second of jobs %.2f",
		median(raw), float64(len(all))/elapsed.Seconds(), median(wall), sum(raw)/sum(wall)))
	if tr != nil {
		lc.finish(out, tr.snapshot(), out.attempted)
		rt.setOn(out, out.attempted)
		out.values["tracing.ops_per_cpu_s"] = float64(len(all)) / jobCPU
	}
	return out, nil
}
