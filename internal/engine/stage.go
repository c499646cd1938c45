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
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// StageName identifies one stage of the qualification pipeline.
type StageName string

// The pipeline stages, in execution order. Baseline is the CA = 0
// Wegman-Zadek analysis of the original graph; the remaining stages are
// the paper's select → automaton → trace → analyze → translate → reduce
// chain. Reduce includes the re-analysis of the reduced graph (the paper
// times them together, and the reduced solution is unusable without the
// reduced graph).
const (
	StageBaseline  StageName = "baseline"
	StageSelect    StageName = "select"
	StageAutomaton StageName = "automaton"
	StageTrace     StageName = "trace"
	StageAnalyze   StageName = "analyze"
	StageTranslate StageName = "translate"
	StageReduce    StageName = "reduce"
	// StageFeasible is the branch-correlation feasibility analysis
	// (Options.Feasible), run once per graph tier that needs a fresh
	// infeasible-edge set (CFG and HPG; the reduced tier recomputes its
	// mask inside the reduce stage).
	StageFeasible StageName = "feasible"
	// StageLiveness and StageAvailExpr are the optional client analyses
	// (Options.Clients), each run on every graph tier the pipeline
	// produced; StageCheck is the opt-in precision differential oracle
	// (Options.Verify).
	StageLiveness  StageName = "liveness"
	StageAvailExpr StageName = "availexpr"
	StageCheck     StageName = "check"
)

// StageOrder lists every stage in execution order. It is the single
// source of truth for stage enumeration: the CLI provenance table and
// the serving layer's metrics iterate it rather than keeping their own
// lists, so new stages appear everywhere by construction.
var StageOrder = []StageName{
	StageBaseline, StageSelect, StageAutomaton, StageTrace,
	StageAnalyze, StageTranslate, StageReduce,
	StageFeasible, StageLiveness, StageAvailExpr, StageCheck,
}

// PipelineStages is the prefix of StageOrder that forms the cached
// qualification pipeline — the stages with per-stage Merkle cache keys,
// and the domain of Delta's dirty-set prediction. Clients and the check
// oracle are excluded (memory-tier-only and uncached respectively).
var PipelineStages = StageOrder[:7]

// StageError is the structured error every pipeline failure is wrapped
// in: it names the owning stage and the function being analyzed, and
// unwraps to the underlying cause (including context.Canceled when a
// cancelled context stopped the stage).
type StageError struct {
	Stage StageName
	Func  string
	Err   error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("engine: %s: stage %s: %v", e.Func, e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Stage is one typed pipeline step: a pure function from its input
// artifact to its output artifact. Stages never observe engine state;
// the engine owns sequencing, cancellation, caching and metrics.
type Stage[In, Out any] struct {
	Name StageName
	Run  func(In) (Out, error)
}

// runStage executes st under ctx, records its duration into m, and wraps
// any failure (including cancellation observed before the stage starts)
// in a *StageError naming the stage and function.
func runStage[In, Out any](ctx context.Context, st Stage[In, Out], fname string, m *Metrics, in In) (Out, error) {
	var zero Out
	if err := ctx.Err(); err != nil {
		return zero, &StageError{Stage: st.Name, Func: fname, Err: err}
	}
	t0 := time.Now()
	out, err := st.Run(in)
	m.add(st.Name, time.Since(t0), 0, SourceComputed)
	if err != nil {
		return zero, &StageError{Stage: st.Name, Func: fname, Err: err}
	}
	return out, nil
}

// --- Typed stage artifacts ----------------------------------------------

// SelectIn feeds hot-path selection.
type SelectIn struct {
	Fn    *cfg.Func
	Train *bl.Profile
	CA    float64
}

// AutomatonIn feeds qualification-automaton construction.
type AutomatonIn struct {
	Fn  *cfg.Func
	R   map[cfg.EdgeID]bool
	Hot []bl.Path
}

// TraceIn feeds Holley-Rosen data-flow tracing.
type TraceIn struct {
	Fn   *cfg.Func
	Auto *automaton.Automaton
}

// AnalyzeIn feeds Wegman-Zadek constant propagation (baseline and HPG).
// Kernel selects the solver backend (packed arenas by default).
// Infeasible, when non-nil, is the tier's feasibility mask: the solve
// withholds facts along marked edges (Options.Feasible).
type AnalyzeIn struct {
	G          *cfg.Graph
	NumVars    int
	Kernel     dataflow.Kernel
	Infeasible []bool
}

// FeasibleIn feeds the branch-correlation feasibility analysis for one
// graph tier.
type FeasibleIn struct {
	G       *cfg.Graph
	NumVars int
}

// TranslateIn feeds profile translation onto an overlay graph.
type TranslateIn struct {
	Prof    *bl.Profile
	Orig    *cfg.Graph
	Overlay profile.Overlay
}

// ReduceIn feeds reduction; NumVars is needed to re-analyze the
// quotient. Feasible re-runs feasibility detection on the quotient
// graph and re-analyzes through the pruned view (the reduced tier's
// mask is recomputed rather than projected — Detect is deterministic
// and the quotient is a different graph than the HPG it came from).
type ReduceIn struct {
	HPG      *trace.HPG
	Sol      *constprop.Result
	Prof     *bl.Profile
	CR       float64
	NumVars  int
	Kernel   dataflow.Kernel
	Feasible bool
}

// ReduceOut is the reduction artifact: the quotient graph and its
// re-analyzed solution.
type ReduceOut struct {
	Red    *reduce.Reduced
	RedSol *constprop.Result
}

// ClientIn feeds the optional client analyses on one graph tier. Guide
// is the tier's constant-propagation solution: liveness is conditioned
// on its executable sub-graph (dead legs keep nothing alive), and
// available expressions intersects only over executable in-edges. U is
// the expression universe shared across tiers (required for
// ClientAvailExpr).
type ClientIn struct {
	G       *cfg.Graph
	NumVars int
	Guide   *dataflow.Solution
	U       *availexpr.Universe
	Kernel  dataflow.Kernel
}

// ClientOut bundles one tier's client-analysis results (fields are nil
// for clients that were not requested).
type ClientOut struct {
	Live  *liveness.Result
	Avail *availexpr.Result
}

// CheckIn feeds the differential oracle with a completed result.
type CheckIn struct {
	Res *FuncResult
}

// --- The stages ----------------------------------------------------------

// BaselineStage runs Wegman-Zadek on the original graph (the CA = 0
// baseline, independent of every knob).
var BaselineStage = Stage[AnalyzeIn, *constprop.Result]{
	Name: StageBaseline,
	Run: func(in AnalyzeIn) (*constprop.Result, error) {
		return constprop.AnalyzeMasked(in.G, in.NumVars, true, in.Kernel, in.Infeasible), nil
	},
}

// FeasibleStage detects infeasible edges on one graph tier.
var FeasibleStage = Stage[FeasibleIn, *feasible.Edges]{
	Name: StageFeasible,
	Run: func(in FeasibleIn) (*feasible.Edges, error) {
		return feasible.Detect(in.G, in.NumVars), nil
	},
}

// SelectStage picks the minimal hot-path set covering CA of the training
// run's dynamic instructions.
var SelectStage = Stage[SelectIn, []bl.Path]{
	Name: StageSelect,
	Run: func(in SelectIn) ([]bl.Path, error) {
		return profile.SelectHot(in.Train, in.Fn.G, in.CA), nil
	},
}

// AutomatonStage builds the Aho-Corasick qualification automaton over the
// trimmed hot paths.
var AutomatonStage = Stage[AutomatonIn, *automaton.Automaton]{
	Name: StageAutomaton,
	Run: func(in AutomatonIn) (*automaton.Automaton, error) {
		return automaton.New(in.Fn.G, in.R, in.Hot)
	},
}

// TraceStage applies Holley-Rosen data-flow tracing, producing the HPG.
var TraceStage = Stage[TraceIn, *trace.HPG]{
	Name: StageTrace,
	Run: func(in TraceIn) (*trace.HPG, error) {
		return trace.Build(in.Fn, in.Auto)
	},
}

// AnalyzeStage runs Wegman-Zadek on the HPG.
var AnalyzeStage = Stage[AnalyzeIn, *constprop.Result]{
	Name: StageAnalyze,
	Run: func(in AnalyzeIn) (*constprop.Result, error) {
		return constprop.AnalyzeMasked(in.G, in.NumVars, true, in.Kernel, in.Infeasible), nil
	},
}

// TranslateStage re-expresses the training profile on the HPG (Lemma 2).
var TranslateStage = Stage[TranslateIn, *bl.Profile]{
	Name: StageTranslate,
	Run: func(in TranslateIn) (*bl.Profile, error) {
		return profile.Translate(in.Prof, in.Orig, in.Overlay)
	},
}

// ReduceStage minimizes the HPG at cutoff CR and re-analyzes the quotient.
var ReduceStage = Stage[ReduceIn, ReduceOut]{
	Name: StageReduce,
	Run: func(in ReduceIn) (ReduceOut, error) {
		red, err := reduce.Reduce(in.HPG, in.Sol, in.Prof, reduce.Options{CR: in.CR})
		if err != nil {
			return ReduceOut{}, err
		}
		var mask []bool
		if in.Feasible {
			mask = feasible.Detect(red.G, in.NumVars).Mask()
		}
		return ReduceOut{Red: red, RedSol: constprop.AnalyzeMasked(red.G, in.NumVars, true, in.Kernel, mask)}, nil
	},
}

// LivenessStage runs guided live-variable analysis (backward) on one
// graph tier.
var LivenessStage = Stage[ClientIn, *liveness.Result]{
	Name: StageLiveness,
	Run: func(in ClientIn) (*liveness.Result, error) {
		return liveness.AnalyzeWith(in.G, in.NumVars, in.Guide, in.Kernel), nil
	},
}

// AvailExprStage runs guided available-expressions analysis (forward)
// on one graph tier.
var AvailExprStage = Stage[ClientIn, *availexpr.Result]{
	Name: StageAvailExpr,
	Run: func(in ClientIn) (*availexpr.Result, error) {
		return availexpr.AnalyzeWith(in.G, in.U, in.Guide, in.Kernel), nil
	},
}

// CheckStage runs the precision differential oracle over a completed
// result; see CheckFuncResult. Violations are reported in the returned
// slice, not as a stage error — the engine decides whether they are
// fatal (Options.Verify) or informational (`pathflow check`).
var CheckStage = Stage[CheckIn, []*oracle.Report]{
	Name: StageCheck,
	Run: func(in CheckIn) ([]*oracle.Report, error) {
		return CheckFuncResult(in.Res), nil
	},
}

// --- Metrics -------------------------------------------------------------

// StageMetrics aggregates one stage's cost within a single FuncResult.
type StageMetrics struct {
	// Duration is the compute cost of the stage. For cache hits this is
	// the stored cost of the run that produced the artifact, so cost
	// ratios (Figure 12) stay meaningful under caching. Disk-decode time
	// is never folded in — it lives in Decode — so incremental-replay
	// numbers compare compute against compute.
	Duration time.Duration
	// Decode is the wall-clock spent decoding this stage's artifact from
	// the persistent tier (zero unless DiskHits > 0, and zero for memory
	// hits and fresh computes). It is the price actually paid for a
	// replay, reported separately from the stored compute cost above.
	Decode time.Duration
	// Runs counts stage executions attributed to this result, including
	// cache hits; CacheHits counts how many of them were served from
	// either cache tier, and DiskHits how many of those were decoded
	// from the persistent tier (DiskHits ⊆ CacheHits). The provenance
	// split is thus: computed = Runs − CacheHits, memory = CacheHits −
	// DiskHits, disk = DiskHits.
	Runs      int
	CacheHits int
	DiskHits  int
}

// Computed returns how many executions actually ran the stage.
func (sm StageMetrics) Computed() int { return sm.Runs - sm.CacheHits }

// DecodeNanos returns the disk-decode cost in nanoseconds (the unit the
// serving layer exports).
func (sm StageMetrics) DecodeNanos() int64 { return sm.Decode.Nanoseconds() }

// Metrics generalizes the old ad-hoc Times struct: per-stage durations,
// run/hit counts, and the actual wall-clock of the pipeline invocation.
type Metrics struct {
	Stages map[StageName]StageMetrics
	// Wall is the observed wall-clock time of this pipeline invocation
	// (cache hits make it smaller than the summed stage durations).
	Wall time.Duration

	// observe, when set (WithStageObserver), is invoked for every stage
	// execution recorded into this record — direct runs and cache-hit
	// merges alike. The cache's leader computes into a private Metrics
	// with no observer and then merges, so each artifact is reported to
	// each requester exactly once.
	observe func(s StageName, d, decode time.Duration, src Provenance)
}

// NewMetrics returns an empty metrics record.
func NewMetrics() *Metrics { return &Metrics{Stages: map[StageName]StageMetrics{}} }

func (m *Metrics) add(s StageName, d, decode time.Duration, src Provenance) {
	sm := m.Stages[s]
	sm.Duration += d
	sm.Decode += decode
	sm.Runs++
	if src.Cached() {
		sm.CacheHits++
	}
	if src == SourceDisk {
		sm.DiskHits++
	}
	m.Stages[s] = sm
	if m.observe != nil {
		m.observe(s, d, decode, src)
	}
}

// merge folds a recorded cost map into m, attributing every entry to the
// given provenance. decode is the wall-clock spent decoding the bundle
// from the persistent tier (nonzero only for the leader of a disk hit);
// it is attributed to the earliest pipeline stage present in cost — each
// disk bundle carries exactly one pipeline stage, so in practice the
// whole decode lands on the stage that owns the bundle and is never
// folded into any stage's Duration.
func (m *Metrics) merge(cost diskcache.Costs, src Provenance, decode time.Duration) {
	var decodeStage StageName
	if decode > 0 {
		for _, s := range StageOrder {
			if _, ok := cost[string(s)]; ok {
				decodeStage = s
				break
			}
		}
	}
	for s, d := range cost {
		if StageName(s) == decodeStage {
			m.add(StageName(s), d, decode, src)
		} else {
			m.add(StageName(s), d, 0, src)
		}
	}
}

// Duration returns the recorded compute cost of stage s.
func (m *Metrics) Duration(s StageName) time.Duration { return m.Stages[s].Duration }

// CacheHits returns the total number of stage executions served from the
// artifact cache (either tier).
func (m *Metrics) CacheHits() int {
	n := 0
	for _, sm := range m.Stages {
		n += sm.CacheHits
	}
	return n
}

// DiskHits returns the total number of stage executions decoded from the
// persistent tier.
func (m *Metrics) DiskHits() int {
	n := 0
	for _, sm := range m.Stages {
		n += sm.DiskHits
	}
	return n
}

// Times projects the metrics onto the legacy Times struct: Baseline,
// Automaton, Trace, Analysis (HPG), Reduce (translate + reduce +
// quotient re-analysis), and Total as the sum of compute costs, exactly
// the spans the pre-engine pipeline timed.
func (m *Metrics) Times() Times {
	t := Times{
		Baseline:  m.Duration(StageBaseline),
		Automaton: m.Duration(StageAutomaton),
		Trace:     m.Duration(StageTrace),
		Analysis:  m.Duration(StageAnalyze),
		Reduce:    m.Duration(StageTranslate) + m.Duration(StageReduce),
	}
	t.Total = t.Baseline + t.Automaton + t.Trace + t.Analysis + t.Reduce
	return t
}

// Times records wall-clock durations of the pipeline stages (the legacy
// pre-engine shape, kept for the harness and CLI).
type Times struct {
	Baseline  time.Duration // Wegman-Zadek on the original graph
	Automaton time.Duration
	Trace     time.Duration
	Analysis  time.Duration // qualified analysis on the HPG
	Reduce    time.Duration
	Total     time.Duration
}

// Qualified returns the extra time qualification added on top of the
// baseline analysis (the paper's Figure 12 numerator).
func (t Times) Qualified() time.Duration {
	return t.Automaton + t.Trace + t.Analysis + t.Reduce
}
