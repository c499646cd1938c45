package bench

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/liveness"
)

// KernelRow is one benchmark's solver-backend comparison on its
// analysis-tier graphs (the HPG of every qualified function, the CFG
// otherwise — the graphs the analyze stage actually solves).
type KernelRow struct {
	Name  string
	Nodes int // nodes across the timed graph set
	// Boxed, Packed, and Sparse are the wall time of one
	// constant-propagation sweep over the whole graph set on each
	// backend.
	Boxed, Packed, Sparse time.Duration
	// Speedup is Boxed / Packed; SparseSpeedup is Packed / Sparse (the
	// sparse kernel's win over the dense arena kernels).
	Speedup, SparseSpeedup float64
	// Checked counts the vertices the differential gate compared across
	// all three clients and both non-reference backends; Violations
	// counts pointwise disagreements (any non-zero value is a kernel
	// bug).
	Checked, Violations int
	// Work holds the per-client dense-vs-sparse solver effort.
	Work []KernelWork
}

// KernelWork is one client's solver effort on a benchmark's analysis
// graphs, summed over the graph set: worklist pops and node transfers
// for the dense packed kernel vs the sparse def-use kernel. Dense pops
// always equal dense transfers (every pop transfers); sparse pops may
// exceed sparse transfers (pass-through pops forward a delta without
// transferring), and sparse transfers are the number to watch shrink.
type KernelWork struct {
	Client                  string
	DensePops, DenseIters   int
	SparsePops, SparseIters int
}

// AnalyzeGraph is one graph the analyze stage solves, with enough
// context to re-run every client on it. Exported so the root kernel
// benchmark times exactly the graph set the engine analyzes.
type AnalyzeGraph struct {
	Func    string
	G       *cfg.Graph
	NumVars int
}

// AnalyzeGraphs returns the analysis-tier graph set for in at the
// paper's recommended operating point (CA=0.97, CR=0.95): the HPG of
// every qualified function, the original CFG otherwise.
func AnalyzeGraphs(ctx context.Context, in *Instance) ([]AnalyzeGraph, error) {
	res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		return nil, err
	}
	var graphs []AnalyzeGraph
	for _, name := range in.Prog.Order {
		fr := res.Funcs[name]
		g := fr.Fn.G
		if fr.Qualified() {
			g = fr.HPG.G
		}
		graphs = append(graphs, AnalyzeGraph{Func: name, G: g, NumVars: in.Prog.Funcs[name].NumVars()})
	}
	return graphs, nil
}

// kernelReps is how many timed constant-propagation sweeps each backend
// runs; the graphs are small enough that single solves sit near the
// timer floor.
const kernelReps = 50

// Kernels times boxed vs packed constant propagation over each
// benchmark's analysis graphs and runs the oracle's differential gate —
// all three clients, packed and sparse vs boxed — as a correctness
// check riding along with the measurement.
func Kernels(ctx context.Context, instances []*Instance) ([]KernelRow, error) {
	var rows []KernelRow
	for _, in := range instances {
		graphs, err := AnalyzeGraphs(ctx, in)
		if err != nil {
			return nil, err
		}
		nodes := 0
		for _, kg := range graphs {
			nodes += kg.G.NumNodes()
		}

		row := KernelRow{Name: in.B.Name, Nodes: nodes}
		row.Work = []KernelWork{
			{Client: "constprop"}, {Client: "liveness"}, {Client: "availexpr"},
		}
		for _, kg := range graphs {
			checked, bad, err := kernelDifferential(in.B.Name, kg, row.Work)
			if err != nil {
				return nil, err
			}
			row.Checked += checked
			row.Violations += bad
		}

		t0 := time.Now()
		for i := 0; i < kernelReps; i++ {
			for _, kg := range graphs {
				constprop.Analyze(kg.G, kg.NumVars, true)
			}
		}
		row.Boxed = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < kernelReps; i++ {
			for _, kg := range graphs {
				constprop.AnalyzePacked(kg.G, kg.NumVars, true)
			}
		}
		row.Packed = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < kernelReps; i++ {
			for _, kg := range graphs {
				constprop.AnalyzeSparse(kg.G, kg.NumVars, true)
			}
		}
		row.Sparse = time.Since(t0)
		if row.Packed > 0 {
			row.Speedup = float64(row.Boxed) / float64(row.Packed)
		}
		if row.Sparse > 0 {
			row.SparseSpeedup = float64(row.Packed) / float64(row.Sparse)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// kernelDifferential solves every client on all three backends over one
// graph, counts the vertices compared and the disagreements found, and
// accumulates per-client dense-vs-sparse solver effort into work (which
// must hold the three clients in the fixed order constprop, liveness,
// availexpr). The packed solutions are gated with the full Differential
// (iterations included — dense mirrors boxed exactly); the sparse ones
// with DifferentialFacts.
func kernelDifferential(name string, kg AnalyzeGraph, work []KernelWork) (checked, violations int, err error) {
	type diff struct {
		client string
		lat    oracle.Lattice
		boxed  *dataflow.Solution
		packed *dataflow.Solution
		sparse *dataflow.Solution
	}
	cpB := constprop.Analyze(kg.G, kg.NumVars, true)
	cpP := constprop.AnalyzePacked(kg.G, kg.NumVars, true)
	cpS := constprop.AnalyzeSparse(kg.G, kg.NumVars, true)
	// The optional clients share one guide (the boxed constprop
	// solution) so all backends solve the identical problem.
	guide := cpB.Sol
	lvB := liveness.Analyze(kg.G, kg.NumVars, guide)
	lvP := liveness.AnalyzePacked(kg.G, kg.NumVars, guide)
	lvS := liveness.AnalyzeSparse(kg.G, kg.NumVars, guide)
	u := availexpr.NewUniverse(kg.G, kg.NumVars)
	aeB := availexpr.Analyze(kg.G, u, guide)
	aeP := availexpr.AnalyzePacked(kg.G, u, guide)
	aeS := availexpr.AnalyzeSparse(kg.G, u, guide)
	for i, d := range []diff{
		{"constprop", &constprop.Problem{NumVars: kg.NumVars, Conditional: true}, cpB.Sol, cpP.Sol, cpS.Sol},
		{"liveness", &liveness.Problem{NumVars: kg.NumVars, Guide: guide}, lvB.Sol, lvP.Sol, lvS.Sol},
		{"availexpr", &availexpr.Problem{U: u, Guide: guide}, aeB.Sol, aeP.Sol, aeS.Sol},
	} {
		rep := oracle.Differential(d.client, "analyze", d.lat, d.boxed, d.packed)
		checked += rep.Checked
		violations += len(rep.Violations)
		if !rep.OK() {
			return checked, violations, fmt.Errorf("bench %s: kernel differential: %w", name, rep.Err())
		}
		srep := oracle.DifferentialFacts(d.client, "analyze", d.lat, d.boxed, d.sparse)
		checked += srep.Checked
		violations += len(srep.Violations)
		if !srep.OK() {
			return checked, violations, fmt.Errorf("bench %s: sparse kernel differential: %w", name, srep.Err())
		}
		work[i].DensePops += d.packed.Pops
		work[i].DenseIters += d.packed.Iterations
		work[i].SparsePops += d.sparse.Pops
		work[i].SparseIters += d.sparse.Iterations
	}
	return checked, violations, nil
}
