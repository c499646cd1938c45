// Package kernel provides allocation-free data-flow solving over packed
// fact arenas — the fast backend behind dataflow.KernelPacked.
//
// The boxed framework in package dataflow models a fact as an interface
// value; every Meet and Transfer allocates, and on hot path graphs that
// grow >50x over the CFG the allocator dominates the analyze stage. The
// kernel layer replaces the representation, not the algorithm: a Domain
// stores every fact as a row of a preallocated arena (packed []uint64
// words for set lattices, parallel struct-of-arrays slices for value
// lattices), identified by a dense small integer. The solver then runs
// the exact same chaotic worklist discipline as dataflow.Solve — same
// RPO priority worklist, same iteration counts — but every lattice
// operation is an in-place loop over primitive slices.
// Solutions are bit-for-bit equal to the boxed reference's (the
// differential oracle and FuzzKernelEquivalence enforce this), which is
// what lets golden metrics stay byte-identical while the representation
// underneath changes completely.
//
// Domains must have finite height: the solver only meets, so a lattice
// with infinite descending chains (widened intervals) would not
// terminate. Such lattices stay on the boxed dataflow.Solve, which
// widens and narrows.
//
// Row layout for a graph of N nodes:
//
//	rows [0, N)          per-node facts (row n holds node n's fact)
//	rows N, N+1, N+2     Transfer scratch (slot outputs)
//
// A Solver is built once per graph and can Run repeatedly with zero
// allocations — the property the BenchmarkAnalyzeKernels allocs gate in
// ci.sh locks down.
package kernel

import (
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
)

// Domain is the packed counterpart of dataflow.Problem: a lattice whose
// facts live in rows of a domain-owned arena. All methods take row
// indices; none may allocate after Grow has sized the arena.
type Domain interface {
	// Direction declares the problem's orientation.
	Direction() dataflow.Direction
	// Grow ensures the arena holds at least rows rows. Called once by
	// NewSolver with the total row budget; existing contents need not
	// survive.
	Grow(rows int)
	// Boundary writes the entry fact (exit fact for backward domains)
	// into row dst.
	Boundary(dst int)
	// Transfer computes the facts leaving node n given its fact in row
	// in. slots has one entry per departing edge (out-edges forward,
	// in-edges backward, in slot order), pre-initialized to -1; the
	// domain marks edge i executable by setting slots[i] to a scratch
	// sub-row index in [0, 3), meaning the fact for that edge is in row
	// scratch+slots[i]. Entries left -1 withhold the edge (the boxed
	// path's nil slot). Distinct slots may share a scratch sub-row when
	// they carry the same fact.
	Transfer(n cfg.NodeID, in, scratch int, slots []int8)
	// Copy overwrites row dst with row src.
	Copy(dst, src int)
	// Meet folds row src into row dst (dst = dst ∧ src) and reports
	// whether dst changed, under the same equality the boxed path's
	// Equal would use.
	Meet(dst, src int) bool
}

// Solver runs the worklist algorithm for one (graph, domain) pair. All
// iteration state is preallocated by NewSolver; Run may be called any
// number of times (each call re-solves from scratch) without
// allocating.
type Solver struct {
	g   *cfg.Graph
	d   Domain
	dir dataflow.Direction

	// Reached[n] reports whether the analysis found n executable;
	// EdgeExecutable[e] whether edge e ever carried a fact; Iterations
	// counts node transfers. All three match the boxed Solution fields
	// exactly. Valid after Run.
	Reached        []bool
	EdgeExecutable []bool
	Iterations     int

	ring  *dataflow.PriorityRing // RPO worklist (reverse RPO backward)
	slots []int8                 // Transfer slot scratch, sized to max degree

	// Pops counts worklist pops. For the dense solver Pops equals
	// Iterations (every pop runs one transfer); the sparse solver keeps
	// the two apart, because pass-through pops forward a delta without
	// re-running the node's transfer.
	Pops int

	sp *sparse // non-nil for solvers built by NewSparseSolver

	scratch int // first Transfer scratch row
}

// NewSolver sizes d's arena for g and preallocates all solver state.
func NewSolver(g *cfg.Graph, d Domain) *Solver {
	n := g.NumNodes()
	s := &Solver{
		g:              g,
		d:              d,
		dir:            d.Direction(),
		Reached:        make([]bool, n),
		EdgeExecutable: make([]bool, g.NumEdges()),
		scratch:        n,
	}
	s.ring = dataflow.NewPriorityRing(n, g.DepthFirst().RPOOrder, s.dir == dataflow.Backward)
	maxDeg := 0
	for i := 0; i < n; i++ {
		nd := g.Node(cfg.NodeID(i))
		deg := len(nd.Out)
		if s.dir == dataflow.Backward {
			deg = len(nd.In)
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	s.slots = make([]int8, maxDeg)
	d.Grow(n + 3)
	return s
}

// Run solves the problem from scratch, leaving the fixpoint in the
// domain's per-node rows and the reachability view on the solver. It
// performs no allocations.
func (s *Solver) Run() {
	s.reset()
	if s.sp != nil {
		s.runSparse()
		return
	}
	g, d := s.g, s.d
	start := g.Entry
	if s.dir == dataflow.Backward {
		start = g.Exit
	}
	d.Boundary(int(start))
	s.Reached[start] = true
	s.push(start)

	for !s.empty() {
		n := s.pop()
		s.Iterations++
		s.Pops++

		nd := g.Node(n)
		edges := nd.Out
		if s.dir == dataflow.Backward {
			edges = nd.In
		}
		sl := s.slots[:len(edges)]
		for i := range sl {
			sl[i] = -1
		}
		d.Transfer(n, int(n), s.scratch, sl)
		for slot, sub := range sl {
			if sub < 0 {
				continue
			}
			eid := edges[slot]
			s.EdgeExecutable[eid] = true
			e := g.Edge(eid)
			to := e.To
			if s.dir == dataflow.Backward {
				to = e.From
			}
			src := s.scratch + int(sub)
			if !s.Reached[to] {
				s.Reached[to] = true
				d.Copy(int(to), src)
				s.push(to)
				continue
			}
			if d.Meet(int(to), src) {
				s.push(to)
			}
		}
	}
}

// reset clears all per-Run iteration state without allocating.
func (s *Solver) reset() {
	for i := range s.Reached {
		s.Reached[i] = false
	}
	for i := range s.EdgeExecutable {
		s.EdgeExecutable[i] = false
	}
	s.Iterations = 0
	s.Pops = 0
	s.ring.Reset()
	if s.sp != nil {
		s.sp.reset()
	}
}

func (s *Solver) push(n cfg.NodeID) { s.ring.Push(n) }
func (s *Solver) pop() cfg.NodeID   { return s.ring.Pop() }
func (s *Solver) empty() bool       { return s.ring.Empty() }

// Materialize assembles a standard boxed Solution from the solved state:
// fact boxes row n for every reached node (called once per node, after
// Run). This is the single boundary where the packed path allocates, and
// it keeps everything downstream of a client — oracle projections,
// guided analyses, disk codecs — unchanged.
func (s *Solver) Materialize(fact func(row int) dataflow.Fact) *dataflow.Solution {
	sol := &dataflow.Solution{
		In:             make([]dataflow.Fact, len(s.Reached)),
		Reached:        append([]bool(nil), s.Reached...),
		EdgeExecutable: append([]bool(nil), s.EdgeExecutable...),
		Iterations:     s.Iterations,
		Pops:           s.Pops,
		Direction:      s.dir,
	}
	for n := range sol.In {
		if s.Reached[n] {
			sol.In[n] = fact(n)
		}
	}
	return sol
}

// String identifies the solver for debugging.
func (s *Solver) String() string {
	return fmt.Sprintf("kernel.Solver(%s, %d nodes)", s.dir, len(s.Reached))
}
