// Package engine is the staged pipeline engine behind pathflow's
// qualification pipeline (Ammons & Larus, PLDI 1998):
//
//	select → automaton → trace → analyze → translate → reduce
//
// plus the CA = 0 baseline analysis. Each step is an explicit Stage with
// typed input/output artifacts; the engine owns sequencing, context
// cancellation, structured per-stage errors (StageError), per-stage
// metrics (Metrics, generalizing the old ad-hoc Times struct), bounded
// parallel scheduling across independent functions (Map), and a
// cross-run artifact cache (Cache) with Merkle-style per-stage keys:
// every stage's key hashes only the input slice it actually reads (CFG
// shape, block bodies, per-block instruction counts, recording edges,
// the training profile) plus the digests of its upstream stage keys —
// one table, stageKeys, gives every stage's composition, and every
// cached stage runs through one helper, cached.
//
// Two reuse stories fall out of the slice keys. Parameter sweeps — the
// harness's Figures 9/11/12 and the CR ablation — recompute only the
// stages the swept knob can influence (the hot set, not CA, addresses
// everything downstream of selection). And *incremental re-analysis*:
// an edited function re-keys exactly the stages whose input slices (or
// ancestors) the edit touched, so a warm cache replays the clean stages
// and recomputes only the dirtied suffix. DiffFunc classifies an edit
// (Delta) and predicts the replay/recompute split ahead of time;
// `pathflow analyze -baseline` reports it.
//
// Callers that need neither parallelism nor caching use Serial(): one
// worker, no artifact cache.
package engine

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/trace"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrent function analyses; <= 0 means
	// runtime.NumCPU(). Results are deterministic for any worker count.
	Workers int
	// Cache enables the cross-run artifact cache. Sharing is safe
	// because every cached artifact is immutable after construction.
	Cache bool
	// MemoryMaxBytes bounds the in-memory cache tier's estimated
	// footprint; least-recently-used bundles are dropped over the
	// budget. <= 0 means unbounded (the right default for one-shot
	// `exp` runs; long-lived servers should set a ceiling).
	MemoryMaxBytes int64
	// CacheDir, when non-empty, attaches the persistent disk tier
	// (implies Cache): artifacts are written through to CacheDir and
	// warm starts decode them instead of recomputing. Requires Open —
	// New ignores the disk-tier fields because it cannot report an
	// open failure.
	CacheDir string
	// CacheMaxBytes bounds the disk tier; least-recently-used bundle
	// files are deleted over the budget. <= 0 means unbounded.
	CacheMaxBytes int64
}

// Engine runs the staged pipeline.
type Engine struct {
	workers int
	cache   *Cache
}

// New returns an engine with the given configuration. The disk-tier
// fields (CacheDir, CacheMaxBytes) are ignored — opening a directory can
// fail, so the persistent tier is only available through Open.
func New(cfg Config) *Engine {
	e := &Engine{workers: cfg.Workers}
	if cfg.Cache {
		e.cache = newCache(cfg.MemoryMaxBytes, nil)
	}
	return e
}

// Open returns an engine with the full configuration, including the
// persistent cache tier when CacheDir is set. A non-empty CacheDir
// implies Cache: the disk tier requires the in-memory tier in front of
// it (disk hits are decoded once and promoted under single-flight).
func Open(cfg Config) (*Engine, error) {
	e := &Engine{workers: cfg.Workers}
	var disk *diskcache.Store
	if cfg.CacheDir != "" {
		var err error
		disk, err = diskcache.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Cache || disk != nil {
		e.cache = newCache(cfg.MemoryMaxBytes, disk)
	}
	return e, nil
}

// Serial returns the engine configuration equivalent to the pre-engine
// pipeline: one worker, no artifact cache.
func Serial() *Engine { return New(Config{Workers: 1}) }

// Workers returns the configured worker bound (0 = NumCPU).
func (e *Engine) Workers() int { return e.workers }

// Disk returns the persistent artifact store, or nil when the engine
// runs without one. The fabric layers its bundle exchange on it: the
// coordinator serves and adopts bundles through the store's name-based
// endpoints, and workers hang a Remote off it.
func (e *Engine) Disk() *diskcache.Store {
	if e.cache == nil {
		return nil
	}
	return e.cache.disk
}

// CacheStats reports artifact-cache counters (zero value when the cache
// is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// AnalyzeFunc runs the pipeline on one function. train may be nil for a
// function the training run never executed; qualification is skipped.
func (e *Engine) AnalyzeFunc(ctx context.Context, fn *cfg.Func, train *bl.Profile, o Options) (*FuncResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return e.analyzeFunc(ctx, fn, train, o)
}

func (e *Engine) analyzeFunc(ctx context.Context, fn *cfg.Func, train *bl.Profile, o Options) (*FuncResult, error) {
	m := newMetrics(ctx, fn.Name)
	var hot []bl.Path
	if train != nil && o.CA > 0 {
		var err error
		hot, err = e.selectHot(ctx, keyIn{fn: fn, train: train}, o.CA, m)
		if err != nil {
			return nil, err
		}
	}
	return e.analyzeFuncHot(ctx, fn, train, hot, o, m)
}

// AnalyzeFuncHot runs the pipeline with an explicitly chosen hot-path
// set, bypassing the coverage-based selection — used by ablations that
// compare selection strategies (e.g. edge-profile estimation against true
// path profiles).
func (e *Engine) AnalyzeFuncHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, o Options) (*FuncResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return e.analyzeFuncHot(ctx, fn, train, hot, o, newMetrics(ctx, fn.Name))
}

func (e *Engine) analyzeFuncHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, o Options, m *Metrics) (*FuncResult, error) {
	res := &FuncResult{Fn: fn, Opt: o, Train: train, Metrics: m}
	start := time.Now()
	nv := fn.NumVars()
	ki := keyIn{fn: fn, train: train, hot: hot}

	// Feasibility runs before the baseline so the CFG tier (and every
	// client on it) already analyzes through the pruned view.
	var feasCFG *feasible.Edges
	if o.Feasible {
		var err error
		feasCFG, err = e.feasibleTier(ctx, ki, fn.G, false, m)
		if err != nil {
			return nil, err
		}
		res.FeasCFG = feasCFG
	}

	sol, err := e.baseline(ctx, ki, o.Kernel, feasCFG, m)
	if err != nil {
		return nil, err
	}
	res.OrigSol = sol

	// CFG-tier client analyses run whether or not qualification will:
	// they are the baseline the HPG/rHPG tiers are compared against, and
	// the only tier at CA = 0. Each tier's client bundle is keyed by the
	// solution that guides it.
	if o.Clients != 0 {
		in := ClientIn{G: fn.G, NumVars: nv, Guide: sol.Sol, Kernel: o.Kernel}
		if o.Clients.Has(ClientAvailExpr) {
			in.U = availexpr.NewUniverse(fn.G, nv)
			res.AvailU = in.U
		}
		co, err := e.clientTier(ctx, fn, tierCFG, func() cacheKey {
			return e.cache.keyMasked(StageBaseline, ki, 0, feasCFG.Mask() != nil)
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveCFG, res.AvailCFG = co.Live, co.Avail
		if co.Avail != nil {
			res.AvailU = co.Avail.U
		}
	}

	res.Hot = hot
	if len(hot) == 0 || train == nil {
		res.Hot = nil
		return e.finalize(ctx, fn, res, o, m, start)
	}

	// The qualification chain runs as four independently cached stages:
	// each replays from the cache tiers when its Merkle key survives the
	// edit (or sweep point) that brought us here, and recomputes
	// otherwise — the unit of reuse is the stage, not the chain.
	a, err := e.automatonStage(ctx, ki, m)
	if err != nil {
		return nil, err
	}
	h, err := e.traceStage(ctx, ki, a, m)
	if err != nil {
		return nil, err
	}
	var feasHPG *feasible.Edges
	if o.Feasible {
		feasHPG, err = e.feasibleTier(ctx, ki, h.G, true, m)
		if err != nil {
			return nil, err
		}
		res.FeasHPG = feasHPG
	}
	hsol, err := e.analyzeStage(ctx, ki, h, o.Kernel, feasHPG, m)
	if err != nil {
		return nil, err
	}
	hprof, err := e.translateStage(ctx, ki, h, m)
	if err != nil {
		return nil, err
	}
	res.Auto, res.HPG, res.HPGSol, res.HPGProf = a, h, hsol, hprof

	r, err := e.reduced(ctx, ki, h, hsol, hprof, o, m)
	if err != nil {
		return nil, err
	}
	res.Red, res.RedSol = r.Red, r.RedSol

	if o.Clients != 0 {
		in := ClientIn{G: h.G, NumVars: nv, Guide: hsol.Sol, U: res.AvailU, Kernel: o.Kernel}
		co, err := e.clientTier(ctx, fn, tierHPG, func() cacheKey {
			return e.cache.keyMasked(StageAnalyze, ki, 0, feasHPG.Mask() != nil)
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveHPG, res.AvailHPG = co.Live, co.Avail

		in = ClientIn{G: r.Red.G, NumVars: nv, Guide: r.RedSol.Sol, U: res.AvailU, Kernel: o.Kernel}
		co, err = e.clientTier(ctx, fn, tierRed, func() cacheKey {
			return e.cache.keyMasked(StageReduce, ki, o.CR, o.Feasible)
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveRed, res.AvailRed = co.Live, co.Avail
	}
	return e.finalize(ctx, fn, res, o, m, start)
}

// finalize optionally runs the differential-oracle check stage, then
// stamps the timing projections. With Options.Verify set, any oracle
// violation fails the whole pipeline with a StageError for the check
// stage (the reports stay attached to the error's FuncResult-less
// context; use `pathflow check` or CheckFuncResult for a non-fatal
// inspection).
func (e *Engine) finalize(ctx context.Context, fn *cfg.Func, res *FuncResult, o Options, m *Metrics, start time.Time) (*FuncResult, error) {
	if o.Verify {
		reports, err := runStage(ctx, CheckStage, fn.Name, m, CheckIn{Res: res})
		if err != nil {
			return nil, err
		}
		res.Oracle = reports
		if verr := OracleErr(reports); verr != nil {
			return nil, &StageError{Stage: StageCheck, Func: fn.Name, Err: verr}
		}
	}
	return finish(res, start), nil
}

func finish(res *FuncResult, start time.Time) *FuncResult {
	res.Metrics.Wall = time.Since(start)
	res.Times = res.Metrics.Times()
	return res
}

// codec is a stage's disk-tier format: the bundle encoder, and a
// decoder that revives a bundle against the live objects its artifact
// attaches to.
type codec[Out any] struct {
	encode func(diskcache.Meta, Out) []byte
	decode func([]byte) (diskcache.Meta, Out, error)
}

// cached runs one cached stage: the memory tier, then the disk tier
// (when c is non-nil and a disk tier is attached), then run. key is
// deferred so the cache-disabled path never touches fingerprint
// machinery. The stage's compute costs are recorded into m whichever
// tier served it, and every disk write is stamped with the context's
// delta class (WithDeltaClass) as provenance.
func cached[Out any](ctx context.Context, e *Engine, m *Metrics, key func() cacheKey, c *codec[Out], run func(*Metrics) (Out, error)) (Out, error) {
	if e.cache == nil {
		return run(m)
	}
	var out Out
	var ops *diskOps
	if c != nil && e.cache.disk != nil {
		class := deltaClassFrom(ctx)
		ops = &diskOps{
			decode: func(data []byte) (any, diskcache.Costs, error) {
				meta, v, err := c.decode(data)
				return v, meta.Costs, err
			},
			encode: func(cost diskcache.Costs) []byte {
				return c.encode(diskcache.Meta{Costs: cost, Class: class}, out)
			},
		}
	}
	v, cost, src, dec, err := e.cache.do(key(), ops, func() (any, diskcache.Costs, error) {
		mm := NewMetrics()
		var err error
		out, err = run(mm)
		return out, costs(mm), err
	})
	if err != nil {
		var zero Out
		return zero, err
	}
	m.merge(cost, src, dec)
	return v.(Out), nil
}

// clientTier computes (or fetches) the requested client analyses for
// one graph tier. guide is the key of the tier's guiding solution; the
// client set lands in knob2, the key dimension reserved for it.
func (e *Engine) clientTier(ctx context.Context, fn *cfg.Func, t graphTier, guide func() cacheKey, in ClientIn, cs ClientSet, m *Metrics) (ClientOut, error) {
	key := func() cacheKey { return cacheKey{tier: t, chain: guide().digest(), knob2: uint64(cs)} }
	return cached(ctx, e, m, key, nil, func(m *Metrics) (ClientOut, error) {
		var out ClientOut
		if cs.Has(ClientLiveness) {
			lv, err := runStage(ctx, LivenessStage, fn.Name, m, in)
			if err != nil {
				return ClientOut{}, err
			}
			out.Live = lv
		}
		if cs.Has(ClientAvailExpr) {
			av, err := runStage(ctx, AvailExprStage, fn.Name, m, in)
			if err != nil {
				return ClientOut{}, err
			}
			out.Avail = av
		}
		return out, nil
	})
}

// selectHot computes (or fetches) the hot-path set at coverage CA. A CR
// sweep re-selects an identical set at every point; caching it matters
// most for path-heavy functions (go's profile runs tens of thousands of
// paths through the selection sort).
func (e *Engine) selectHot(ctx context.Context, ki keyIn, ca float64, m *Metrics) ([]bl.Path, error) {
	in := SelectIn{Fn: ki.fn, Train: ki.train, CA: ca}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.key(StageSelect, ki, ca) },
		&codec[[]bl.Path]{diskcache.EncodeSelect, func(data []byte) (diskcache.Meta, []bl.Path, error) {
			return diskcache.DecodeSelect(data, ki.fn.G)
		}},
		func(m *Metrics) ([]bl.Path, error) { return runStage(ctx, SelectStage, ki.fn.Name, m, in) })
}

// feasibleTier computes (or fetches) the infeasible-edge set of one
// graph tier: the function's CFG, or (hpg) the traced graph g.
func (e *Engine) feasibleTier(ctx context.Context, ki keyIn, g *cfg.Graph, hpg bool, m *Metrics) (*feasible.Edges, error) {
	in := FeasibleIn{G: g, NumVars: ki.fn.NumVars()}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.keyFeasible(ki, hpg) },
		&codec[*feasible.Edges]{
			func(meta diskcache.Meta, ed *feasible.Edges) []byte {
				return diskcache.EncodeFeasible(meta, ed.Infeasible)
			},
			func(data []byte) (diskcache.Meta, *feasible.Edges, error) {
				meta, mask, err := diskcache.DecodeFeasible(data, g)
				return meta, feasible.FromMask(mask), err
			}},
		func(m *Metrics) (*feasible.Edges, error) { return runStage(ctx, FeasibleStage, ki.fn.Name, m, in) })
}

// baseline computes (or fetches) the CA = 0 Wegman-Zadek solution,
// masked by the CFG tier's feasibility artifact when one was computed.
func (e *Engine) baseline(ctx context.Context, ki keyIn, kern dataflow.Kernel, feas *feasible.Edges, m *Metrics) (*constprop.Result, error) {
	in := AnalyzeIn{G: ki.fn.G, NumVars: ki.fn.NumVars(), Kernel: kern, Infeasible: feas.Mask()}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.keyMasked(StageBaseline, ki, 0, in.Infeasible != nil) },
		&codec[*constprop.Result]{diskcache.EncodeBaseline,
			func(data []byte) (diskcache.Meta, *constprop.Result, error) {
				return diskcache.DecodeBaseline(data, in.G, in.NumVars)
			}},
		func(m *Metrics) (*constprop.Result, error) { return runStage(ctx, BaselineStage, ki.fn.Name, m, in) })
}

// automatonStage computes (or fetches) the Aho-Corasick qualification
// automaton. Its key chains the hot-set fingerprint (output-addressed),
// so any route to the same hot set — a different CA, an explicit
// AnalyzeFuncHot set, a counts-only edit that re-selects identically —
// shares the bundle.
func (e *Engine) automatonStage(ctx context.Context, ki keyIn, m *Metrics) (*automaton.Automaton, error) {
	in := AutomatonIn{Fn: ki.fn, R: ki.train.R, Hot: ki.hot}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.key(StageAutomaton, ki, 0) },
		&codec[*automaton.Automaton]{diskcache.EncodeAutomatonBundle,
			func(data []byte) (diskcache.Meta, *automaton.Automaton, error) {
				return diskcache.DecodeAutomatonBundle(data, in.R)
			}},
		func(m *Metrics) (*automaton.Automaton, error) {
			return runStage(ctx, AutomatonStage, ki.fn.Name, m, in)
		})
}

// traceStage computes (or fetches) the Holley-Rosen traced HPG. Its
// slice includes block bodies (the HPG copies them into its nodes), so
// a body edit recomputes it; the decode attaches the stored graph
// structure to the live function and automaton via trace.Assemble.
func (e *Engine) traceStage(ctx context.Context, ki keyIn, a *automaton.Automaton, m *Metrics) (*trace.HPG, error) {
	in := TraceIn{Fn: ki.fn, Auto: a}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.key(StageTrace, ki, 0) },
		&codec[*trace.HPG]{diskcache.EncodeTrace,
			func(data []byte) (diskcache.Meta, *trace.HPG, error) {
				return diskcache.DecodeTrace(data, ki.fn, a)
			}},
		func(m *Metrics) (*trace.HPG, error) { return runStage(ctx, TraceStage, ki.fn.Name, m, in) })
}

// analyzeStage computes (or fetches) the Wegman-Zadek solution on the
// HPG. Pure chain key: its only input is the trace stage's output.
func (e *Engine) analyzeStage(ctx context.Context, ki keyIn, h *trace.HPG, kern dataflow.Kernel, feas *feasible.Edges, m *Metrics) (*constprop.Result, error) {
	in := AnalyzeIn{G: h.G, NumVars: ki.fn.NumVars(), Kernel: kern, Infeasible: feas.Mask()}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.keyMasked(StageAnalyze, ki, 0, in.Infeasible != nil) },
		&codec[*constprop.Result]{diskcache.EncodeAnalyze,
			func(data []byte) (diskcache.Meta, *constprop.Result, error) {
				return diskcache.DecodeAnalyze(data, in.G, in.NumVars)
			}},
		func(m *Metrics) (*constprop.Result, error) { return runStage(ctx, AnalyzeStage, ki.fn.Name, m, in) })
}

// translateStage computes (or fetches) the training profile translated
// onto the HPG (Lemma 2). Its slice is shape + profile but *not* block
// bodies: an HPG's node/edge structure depends only on the CFG shape
// and the automaton, so a body-only edit replays the translation onto
// the freshly traced (body-updated) HPG — the stored bundle's edge IDs
// still line up.
func (e *Engine) translateStage(ctx context.Context, ki keyIn, h *trace.HPG, m *Metrics) (*bl.Profile, error) {
	in := TranslateIn{Prof: ki.train, Orig: ki.fn.G, Overlay: h}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.key(StageTranslate, ki, 0) },
		&codec[*bl.Profile]{diskcache.EncodeTranslate,
			func(data []byte) (diskcache.Meta, *bl.Profile, error) {
				return diskcache.DecodeTranslate(data, h.G)
			}},
		func(m *Metrics) (*bl.Profile, error) { return runStage(ctx, TranslateStage, ki.fn.Name, m, in) })
}

// reduced computes (or fetches) the reduced HPG and its solution. Pure
// chain key over the analyze and translate stages plus the CR knob.
func (e *Engine) reduced(ctx context.Context, ki keyIn, h *trace.HPG, hsol *constprop.Result, hprof *bl.Profile, o Options, m *Metrics) (ReduceOut, error) {
	in := ReduceIn{HPG: h, Sol: hsol, Prof: hprof, CR: o.CR, NumVars: ki.fn.NumVars(), Kernel: o.Kernel, Feasible: o.Feasible}
	return cached(ctx, e, m,
		func() cacheKey { return e.cache.keyMasked(StageReduce, ki, o.CR, o.Feasible) },
		&codec[ReduceOut]{
			func(meta diskcache.Meta, r ReduceOut) []byte {
				return diskcache.EncodeReduced(meta, r.Red, r.RedSol)
			},
			func(data []byte) (diskcache.Meta, ReduceOut, error) {
				meta, red, sol, err := diskcache.DecodeReduced(data, h)
				return meta, ReduceOut{Red: red, RedSol: sol}, err
			}},
		func(m *Metrics) (ReduceOut, error) { return runStage(ctx, ReduceStage, ki.fn.Name, m, in) })
}

// costs records m's per-stage compute costs in the form bundles carry
// them (diskcache cannot import engine's StageName without a cycle, so
// bundles key costs by plain strings).
func costs(m *Metrics) diskcache.Costs {
	out := make(diskcache.Costs, len(m.Stages))
	for s, sm := range m.Stages {
		out[string(s)] = sm.Duration
	}
	return out
}

// AnalyzeProgram runs the pipeline on every function of prog using the
// given training profile, analyzing independent functions in parallel on
// the engine's worker pool. Results are deterministic and keyed by
// function name.
func (e *Engine) AnalyzeProgram(ctx context.Context, prog *cfg.Program, train *bl.ProgramProfile, o Options) (*ProgramResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	frs, err := Map(ctx, e.workers, prog.Order, func(ctx context.Context, name string) (*FuncResult, error) {
		var tp *bl.Profile
		if train != nil {
			tp = train.Funcs[name]
		}
		return e.analyzeFunc(ctx, prog.Funcs[name], tp, o)
	})
	if err != nil {
		return nil, err
	}
	out := &ProgramResult{Prog: prog, Opt: o, Funcs: make(map[string]*FuncResult, len(frs))}
	for i, name := range prog.Order {
		out.Funcs[name] = frs[i]
	}
	return out, nil
}

// SweepProgram analyzes prog at every parameter point. Points run in
// order so that, with the cache enabled, each point reuses every
// artifact the earlier points already materialized (a CR sweep reuses
// the HPG and its solution; every point reuses the baseline).
func (e *Engine) SweepProgram(ctx context.Context, prog *cfg.Program, train *bl.ProgramProfile, opts []Options) ([]*ProgramResult, error) {
	out := make([]*ProgramResult, len(opts))
	for i, o := range opts {
		r, err := e.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// ProfileAndAnalyze profiles prog on the training input, then analyzes it.
func (e *Engine) ProfileAndAnalyze(ctx context.Context, prog *cfg.Program, trainOpts interp.Options, o Options) (*ProgramResult, *bl.ProgramProfile, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	train, _, err := bl.ProfileProgram(prog, trainOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: training run failed: %w", err)
	}
	res, err := e.AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		return nil, nil, err
	}
	return res, train, nil
}
