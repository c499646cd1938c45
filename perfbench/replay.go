package main

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/reduce"
)

// layerCounts accumulates the work counts of a traced run.
type layerCounts struct {
	irInstrs, interpBlocks, blPaths       int64
	hotPaths, states, hpgNodes, rhpgNodes int64
	detectCalls, infeasibleEdges          int64
	stageRuns, stageHits                  int64
}

// stageSpans are the span names of the replayed pipeline stages: their
// summed self time is what the engine's wall time is compared against.
var stageSpans = []string{
	"feasible.detect", "constprop.cfg", "liveness", "availexpr", "profile.select",
	"automaton.build", "trace.build", "constprop.hpg", "profile.translate", "reduce",
}

// attribute is the traced run's per-job attribution pass, outside the
// job's own span: uninstrumented interpreter runs on the job's inputs,
// a stage-by-stage replay of the pipeline through each layer's public
// entry point in the engine's stage order (checked against the engine's
// result), and the HPG constant-propagation solve under every kernel.
func attribute(ctx context.Context, p *suiteProgram, a *jobArtifacts, o engine.Options, tr *tracer, id int, lc *layerCounts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	root := tr.begin("attribution", -1, id)
	defer tr.end(root)
	for _, fn := range a.prog.Funcs {
		for _, nd := range fn.G.Nodes {
			lc.irInstrs += int64(len(nd.Instrs))
		}
	}
	for _, io := range []interp.Options{p.trainOpts(), p.refOpts()} {
		sp := tr.begin("interp.run", root, id)
		r, err := interp.Run(a.prog, io)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("uninstrumented run: %w", err)
		}
		lc.interpBlocks += r.Steps
	}
	lc.blPaths += int64(a.train.TotalPaths())
	for _, fr := range a.res.Funcs {
		if fr.Metrics == nil {
			continue
		}
		for _, sm := range fr.Metrics.Stages {
			lc.stageRuns += int64(sm.Runs)
			lc.stageHits += int64(sm.CacheHits)
		}
	}

	for _, name := range a.prog.Order {
		fn := a.prog.Funcs[name]
		rp := tr.begin("replay", root, id)
		got, h, hmask, err := replayFunc(fn, a.train.Funcs[name], o, tr, rp, id, lc)
		tr.end(rp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if want := engineShape(a.res.Funcs[name]); got != want {
			return fmt.Errorf("%s: replay %+v differs from the engine's %+v", name, got, want)
		}
		if h != nil {
			if err := kernelEvidence(h, fn.NumVars(), hmask, tr, root, id); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// shape is what the replay must reproduce of the engine's result for
// one function: graph sizes, selection, feasibility and constant counts.
type shape struct {
	Qualified                       bool
	Hot, States, HPGNodes, RedNodes int
	FeasCFG, FeasHPG                int
	CFGConsts, FinalConsts          int
}

// constSites counts the non-local constant result sites of a solution.
func constSites(g *cfg.Graph, sol *constprop.Result, nv int) int {
	n := 0
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		for _, c := range constprop.ConstFlags(g, nd.ID, sol.EnvAt(nd.ID), nv, true) {
			if c {
				n++
			}
		}
	}
	return n
}

func engineShape(fr *engine.FuncResult) shape {
	nv := fr.Fn.NumVars()
	s := shape{Qualified: fr.Qualified(), Hot: len(fr.Hot), CFGConsts: constSites(fr.Fn.G, fr.OrigSol, nv)}
	if fr.FeasCFG != nil {
		s.FeasCFG = fr.FeasCFG.Count
	}
	if fr.FeasHPG != nil {
		s.FeasHPG = fr.FeasHPG.Count
	}
	if fr.Qualified() {
		s.States, s.HPGNodes, s.RedNodes = fr.Auto.NumStates(), fr.HPG.G.NumNodes(), fr.Red.G.NumNodes()
		s.FinalConsts = constSites(fr.Red.G, fr.RedSol, nv)
	} else {
		s.FinalConsts = s.CFGConsts
	}
	return s
}

// replayFunc runs one function's pipeline stage by stage, each call in
// its own span. It returns the HPG and its mask for the kernel evidence
// (nil when the function was not qualified).
func replayFunc(fn *cfg.Func, train *bl.Profile, o engine.Options, tr *tracer, parent, id int, lc *layerCounts) (shape, *cfg.Graph, []bool, error) {
	nv := fn.NumVars()
	detect := func(g *cfg.Graph, parent int) *feasible.Edges {
		sp := tr.begin("feasible.detect", parent, id)
		ed := feasible.Detect(g, nv)
		tr.end(sp)
		lc.detectCalls++
		lc.infeasibleEdges += int64(ed.Count)
		return ed
	}
	var u *availexpr.Universe
	clients := func(g *cfg.Graph, guide *dataflow.Solution) {
		in := engine.ClientIn{G: g, NumVars: nv, Guide: guide, Kernel: o.Kernel}
		if o.Clients.Has(engine.ClientLiveness) {
			sp := tr.begin("liveness", parent, id)
			engine.LivenessStage.Run(in) //nolint:errcheck // the stage never fails
			tr.end(sp)
		}
		if o.Clients.Has(engine.ClientAvailExpr) {
			sp := tr.begin("availexpr", parent, id)
			if u == nil {
				u = availexpr.NewUniverse(fn.G, nv)
			}
			in.U = u
			engine.AvailExprStage.Run(in) //nolint:errcheck // the stage never fails
			tr.end(sp)
		}
	}

	var s shape
	var feasCFG *feasible.Edges
	if o.Feasible {
		feasCFG = detect(fn.G, parent)
		s.FeasCFG = feasCFG.Count
	}
	sp := tr.begin("constprop.cfg", parent, id)
	sol, err := engine.BaselineStage.Run(engine.AnalyzeIn{G: fn.G, NumVars: nv, Kernel: o.Kernel, Infeasible: feasCFG.Mask()})
	tr.end(sp)
	if err != nil {
		return s, nil, nil, err
	}
	s.CFGConsts = constSites(fn.G, sol, nv)
	s.FinalConsts = s.CFGConsts
	clients(fn.G, sol.Sol)
	if train == nil || o.CA == 0 {
		return s, nil, nil, nil
	}

	sp = tr.begin("profile.select", parent, id)
	hot, err := engine.SelectStage.Run(engine.SelectIn{Fn: fn, Train: train, CA: o.CA})
	tr.end(sp)
	if err != nil || len(hot) == 0 {
		return s, nil, nil, err
	}
	s.Qualified, s.Hot = true, len(hot)
	lc.hotPaths += int64(len(hot))

	sp = tr.begin("automaton.build", parent, id)
	au, err := engine.AutomatonStage.Run(engine.AutomatonIn{Fn: fn, R: train.R, Hot: hot})
	tr.end(sp)
	if err != nil {
		return s, nil, nil, err
	}
	s.States = au.NumStates()
	lc.states += int64(s.States)

	sp = tr.begin("trace.build", parent, id)
	h, err := engine.TraceStage.Run(engine.TraceIn{Fn: fn, Auto: au})
	tr.end(sp)
	if err != nil {
		return s, nil, nil, err
	}
	s.HPGNodes = h.G.NumNodes()
	lc.hpgNodes += int64(s.HPGNodes)

	var feasHPG *feasible.Edges
	if o.Feasible {
		feasHPG = detect(h.G, parent)
		s.FeasHPG = feasHPG.Count
	}
	sp = tr.begin("constprop.hpg", parent, id)
	hsol, err := engine.AnalyzeStage.Run(engine.AnalyzeIn{G: h.G, NumVars: nv, Kernel: o.Kernel, Infeasible: feasHPG.Mask()})
	tr.end(sp)
	if err != nil {
		return s, nil, nil, err
	}

	sp = tr.begin("profile.translate", parent, id)
	hprof, err := engine.TranslateStage.Run(engine.TranslateIn{Prof: train, Orig: fn.G, Overlay: h})
	tr.end(sp)
	if err != nil {
		return s, nil, nil, err
	}

	// The reduce stage, through the functions beneath engine.ReduceStage
	// so the quotient's re-detection is its own span: reduce.ms covers
	// the quotient, its re-detection and its re-solve.
	sp = tr.begin("reduce", parent, id)
	red, err := reduce.Reduce(h, hsol, hprof, reduce.Options{CR: o.CR})
	if err != nil {
		tr.end(sp)
		return s, nil, nil, err
	}
	var rmask []bool
	if o.Feasible {
		rmask = detect(red.G, sp).Mask()
	}
	rsol := constprop.AnalyzeMasked(red.G, nv, true, o.Kernel, rmask)
	tr.end(sp)
	s.RedNodes = red.G.NumNodes()
	lc.rhpgNodes += int64(s.RedNodes)
	s.FinalConsts = constSites(red.G, rsol, nv)

	clients(h.G, hsol.Sol)
	clients(red.G, rsol.Sol)
	return s, h.G, feasHPG.Mask(), nil
}

// kernelEvidence solves HPG constant propagation under each solver
// backend and checks that the three agree on every fact.
func kernelEvidence(g *cfg.Graph, nv int, mask []bool, tr *tracer, parent, id int) error {
	sols := map[dataflow.Kernel]*constprop.Result{}
	for _, k := range []dataflow.Kernel{dataflow.KernelPacked, dataflow.KernelSparse, dataflow.KernelBoxed} {
		sp := tr.begin("kernel.hpg_solve."+k.String(), parent, id)
		sols[k] = constprop.AnalyzeMasked(g, nv, true, k, mask)
		tr.end(sp)
	}
	lat := &constprop.Problem{NumVars: nv, Conditional: true}
	boxed := sols[dataflow.KernelBoxed].Sol
	for _, k := range []dataflow.Kernel{dataflow.KernelPacked, dataflow.KernelSparse} {
		if rep := oracle.DifferentialFacts("constprop", "hpg", lat, boxed, sols[k].Sol); !rep.OK() {
			return fmt.Errorf("kernel %s disagrees with boxed: %w", k, rep.Err())
		}
		if rep := oracle.DifferentialFacts("constprop", "hpg", lat, sols[k].Sol, boxed); !rep.OK() {
			return fmt.Errorf("boxed disagrees with kernel %s: %w", k, rep.Err())
		}
	}
	return nil
}

// finish turns a suite traced run's spans and counts into the per-layer
// metrics (per job) and the layer self times for the share report.
func (lc *layerCounts) finish(out *outcome, spans []span, jobs int) {
	if jobs == 0 {
		return
	}
	t := totals(spans)
	perJob := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(jobs) }
	n := float64(jobs)
	v := out.values
	v["lang.compile_ms"] = perJob(t.dur["lang.compile"])
	v["lang.ir_instrs"] = float64(lc.irInstrs) / n
	v["interp.run_ms"] = perJob(t.dur["interp.run"])
	v["interp.blocks"] = float64(lc.interpBlocks) / n
	v["bl.profile_ms"] = perJob(t.dur["bl.profile"] - t.dur["interp.run"])
	v["bl.paths"] = float64(lc.blPaths) / n
	v["profile.select_ms"] = perJob(t.dur["profile.select"])
	v["profile.translate_ms"] = perJob(t.dur["profile.translate"])
	v["profile.hot_paths"] = float64(lc.hotPaths) / n
	v["automaton.build_ms"] = perJob(t.dur["automaton.build"])
	v["automaton.states"] = float64(lc.states) / n
	v["trace.build_ms"] = perJob(t.dur["trace.build"])
	v["trace.hpg_nodes"] = float64(lc.hpgNodes) / n
	v["constprop.cfg_ms"] = perJob(t.dur["constprop.cfg"])
	v["constprop.hpg_ms"] = perJob(t.dur["constprop.hpg"])
	v["reduce.ms"] = perJob(t.dur["reduce"])
	v["reduce.rhpg_nodes"] = float64(lc.rhpgNodes) / n
	v["feasible.detect_ms"] = perJob(t.dur["feasible.detect"])
	v["feasible.detect_calls"] = float64(lc.detectCalls) / n
	v["feasible.infeasible_edges"] = float64(lc.infeasibleEdges) / n
	v["liveness.ms"] = perJob(t.dur["liveness"])
	v["availexpr.ms"] = perJob(t.dur["availexpr"])
	v["eval.ms"] = perJob(t.dur["eval"])
	var stages time.Duration
	for _, s := range stageSpans {
		stages += t.self[s]
	}
	v["engine.overhead_ms"] = perJob(t.dur["engine.analyze"] - stages)
	if lc.stageRuns > 0 {
		v["engine.cache_hit_ratio"] = float64(lc.stageHits) / float64(lc.stageRuns)
	}
	for _, k := range []dataflow.Kernel{dataflow.KernelPacked, dataflow.KernelSparse, dataflow.KernelBoxed} {
		v["kernel.hpg_solve_ms."+k.String()] = perJob(t.dur["kernel.hpg_solve."+k.String()])
	}

	// Self time per job of each layer of a job, the basis of the share
	// report: the interpreter's share is the uninstrumented run, the
	// profiler's the rest of the profiled runs, and the engine's its
	// wall time beyond the stages it ran.
	l := out.layers
	l["lang"] = v["lang.compile_ms"]
	l["interp"] = v["interp.run_ms"]
	l["bl"] = v["bl.profile_ms"]
	l["profile"] = perJob(t.self["profile.select"] + t.self["profile.translate"])
	l["automaton"] = perJob(t.self["automaton.build"])
	l["trace"] = perJob(t.self["trace.build"])
	l["constprop"] = perJob(t.self["constprop.cfg"] + t.self["constprop.hpg"])
	l["reduce"] = perJob(t.self["reduce"])
	l["feasible"] = perJob(t.self["feasible.detect"])
	l["liveness"] = perJob(t.self["liveness"])
	l["availexpr"] = perJob(t.self["availexpr"])
	l["engine"] = v["engine.overhead_ms"]
	l["eval"] = v["eval.ms"]
}
