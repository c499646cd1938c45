// Package dataflow provides a generic monotone data-flow framework with
// an iterative worklist solver.
//
// The framework is deliberately edge-based: a problem's transfer function
// produces one fact per out-edge and may withhold a fact from an edge to
// mark it non-executable under current knowledge. That is exactly the
// shape of Wegman-Zadek conditional constant propagation (the client the
// paper evaluates), and it also accommodates ordinary problems, which
// simply emit the same fact on every out-edge.
//
// The solver is an optimistic chaotic iteration: facts start at ⊤
// (unreached) and only descend, so accumulating meets per node converges
// to the greatest fixpoint consistent with executable edges. It assumes
// nothing about reducibility — hot path graphs produced by tracing are
// irreducible (paper §4.1), which rules out elimination-style solvers.
//
// The framework is direction-polymorphic: a Problem may implement
// Directional to declare a Backward orientation (liveness-style
// problems). In backward mode the roles of edges flip — the transfer
// function produces one fact per IN-edge, facts propagate from a node to
// its predecessors, and iteration starts at the graph's exit. Everything
// else (optimistic ⊤ start, per-edge executability, Widener hooks, the
// narrowing passes, irreducibility tolerance) carries over unchanged.
//
// Three solver backends share this contract: the boxed reference path
// in this file (facts as interface values) and, under dataflow/kernel,
// the packed dense kernels and the sparse def-use-chain solver (facts
// as rows of preallocated arenas). The boxed path is the semantic
// reference; the dense kernels must reproduce its solutions — including
// iteration counts — exactly, while the sparse solver must match its
// facts, reachability, and edge executability but may (and does) spend
// fewer transfers getting there. The kernels solve finite-height
// lattices only; a Widener problem runs on the boxed path alone.
package dataflow

import "pathflow/internal/cfg"

// Direction is the orientation of a data-flow problem.
type Direction uint8

const (
	// Forward problems propagate facts from entry toward exit along
	// edges (constant propagation, available expressions).
	Forward Direction = iota
	// Backward problems propagate facts from exit toward entry against
	// edges (liveness, very-busy expressions).
	Backward
)

// String returns "forward" or "backward".
func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Directional is optionally implemented by problems to declare their
// orientation. Problems that do not implement it are Forward.
type Directional interface {
	Direction() Direction
}

// DirectionOf reports the orientation of p (Forward unless p implements
// Directional and says otherwise).
func DirectionOf(p Problem) Direction {
	if d, ok := p.(Directional); ok {
		return d.Direction()
	}
	return Forward
}

// Kernel selects the fact representation a client analysis solves on.
// All backends compute identical facts (the differential oracle and
// FuzzKernelEquivalence enforce pointwise equality); they differ only
// in memory layout, propagation strategy, and speed.
type Kernel uint8

const (
	// KernelPacked solves on the allocation-free packed kernels
	// (dataflow/kernel): bitset or struct-of-arrays arenas sized once
	// per graph. The default.
	KernelPacked Kernel = iota
	// KernelBoxed solves on the boxed reference implementation in this
	// package (facts as interface values).
	KernelBoxed
	// KernelSparse solves on the packed arenas with sparse def-use
	// propagation (dataflow/kernel's sparse solver): facts travel only
	// along the chains the graph's defs and uses induce, and nodes
	// transparent to a change forward it without re-running their
	// transfer. Solutions are pointwise equal to the other backends'
	// but iteration counts legitimately differ (see
	// oracle.DifferentialFacts).
	KernelSparse
)

// String returns "packed", "boxed" or "sparse".
func (k Kernel) String() string {
	switch k {
	case KernelBoxed:
		return "boxed"
	case KernelSparse:
		return "sparse"
	}
	return "packed"
}

// Fact is an element of the problem's lattice. Facts must be treated as
// immutable: transfer functions receive a fact and must not modify it.
type Fact interface{}

// Problem defines a monotone data-flow problem (paper Definition 1).
//
// For Backward problems (see Directional) the orientation of every
// method flips: Entry returns the fact holding at the function's *exit*,
// Transfer receives the fact at node n's exit and fills one slot per
// IN-edge of n (in n's In-list order), and a nil slot marks that in-edge
// non-executable under the current fact.
type Problem interface {
	// Entry returns the fact holding at the function's entry (l_r) —
	// or, for Backward problems, at the function's exit.
	Entry() Fact
	// Meet combines two facts (the lattice ∧). Meet is only called with
	// non-nil facts.
	Meet(a, b Fact) Fact
	// Equal reports whether two facts are equal; used to detect
	// convergence.
	Equal(a, b Fact) bool
	// Transfer computes the facts leaving node n given the fact at its
	// entry. out has one slot per out-edge of n, in slot order; a slot
	// left nil marks that edge non-executable under in. Slots are
	// pre-initialized to nil. For Backward problems, in is the fact at
	// n's exit and out has one slot per in-edge of n.
	Transfer(g *cfg.Graph, n cfg.NodeID, in Fact, out []Fact)
}

// Widener is implemented by problems over lattices of unbounded height
// (e.g. intervals). After a node's incoming fact has changed
// WidenThreshold times, the solver combines with Widen instead of Meet;
// a correct Widen must guarantee that every chain
// old, Widen(old, x1), Widen(Widen(old, x1), x2), … stabilizes.
type Widener interface {
	Widen(old, new Fact) Fact
}

// WidenThreshold is the number of per-node fact changes after which the
// solver switches from Meet to Widen for widening problems. The small
// constant trades a little precision for fast convergence, as usual.
const WidenThreshold = 4

// NarrowingPasses is the number of decreasing re-iterations run after a
// widened solve converges: each pass recomputes every node's fact from
// its executable predecessors, recovering precision the widening
// overshot (bounds that a loop exit actually limits). Starting from a
// sound post-fixpoint, re-application of monotone transfers stays sound,
// and the fixed pass count bounds the work.
const NarrowingPasses = 2

// Solution is the result of Solve.
type Solution struct {
	// In[n] is the fact at node n's entry — the meet over the facts
	// delivered by executable in-edges. nil if n was never reached.
	// For Backward problems, In[n] is the fact at node n's *exit* — the
	// meet over facts delivered by executable out-edges.
	In []Fact
	// Reached[n] reports whether the analysis found n executable (for
	// Backward problems: reachable against edges from the exit).
	Reached []bool
	// EdgeExecutable[e] reports whether edge e ever carried a fact.
	EdgeExecutable []bool
	// Iterations counts node transfers, a measure of analysis effort
	// (used by the paper's Figure 12-style analysis-time experiment).
	Iterations int
	// Pops counts fixpoint worklist pops. For the dense backends every
	// pop transfers, so Pops equals the worklist share of Iterations;
	// the sparse kernel also pops transparent nodes it forwards through
	// without transferring, so there Pops >= Iterations. Narrowing-pass
	// transfers count toward Iterations but not Pops.
	Pops int
	// Direction records the orientation the solution was computed in.
	Direction Direction
}

// Solve runs the worklist algorithm on g, dispatching on the problem's
// declared direction.
func Solve(g *cfg.Graph, p Problem) *Solution {
	s := newSolver(g, p)
	s.run()
	if s.widener != nil {
		s.narrow()
	}
	return s.sol
}

// solver owns all iteration state for one Solve: the worklist, the
// per-Transfer out-slot scratch, and the narrowing-pass arena.
// Non-widening problems iterate in reverse-postorder priority (a
// PriorityRing over the graph's RPO — reverse RPO for backward
// problems); widening problems keep the FIFO ring, because widening is
// order-sensitive and the golden metrics pin the widened facts that
// schedule produces. Either way a node is enqueued at most once while
// pending, and everything is allocated once up front; the hot loop
// allocates nothing beyond what the problem's own Meet/Transfer
// allocate.
type solver struct {
	g   *cfg.Graph
	p   Problem
	dir Direction
	sol *Solution

	widener Widener

	ring         *PriorityRing // non-widening problems
	inQueue      []bool        // widening problems: FIFO membership …
	queue        []cfg.NodeID  // … and ring buffer, NumNodes+1 slots
	qhead, qtail int

	out []Fact // Transfer out-slot scratch, reused across iterations

	// Widening / narrowing state (nil unless p implements Widener).
	changes []int
	widenAt []bool
	dfs     *cfg.DFS
	// Narrowing-pass cache of recomputed out-facts, one slot per edge
	// (an edge belongs to exactly one node's slot list per direction),
	// with per-node validity — hoisted here so repeated passes reuse
	// the arena instead of reallocating per pass.
	outFacts []Fact
	outValid []bool
}

func newSolver(g *cfg.Graph, p Problem) *solver {
	s := &solver{
		g:   g,
		p:   p,
		dir: DirectionOf(p),
		sol: &Solution{
			In:             make([]Fact, g.NumNodes()),
			Reached:        make([]bool, g.NumNodes()),
			EdgeExecutable: make([]bool, g.NumEdges()),
		},
	}
	s.sol.Direction = s.dir
	s.widener, _ = p.(Widener)
	s.dfs = g.DepthFirst()
	if s.widener == nil {
		s.ring = NewPriorityRing(g.NumNodes(), s.dfs.RPOOrder, s.dir == Backward)
	} else {
		s.inQueue = make([]bool, g.NumNodes())
		s.queue = make([]cfg.NodeID, g.NumNodes()+1)
	}
	if s.widener != nil {
		s.changes = make([]int, g.NumNodes())
		// Widen only at loop heads (targets of retreating edges):
		// widening elsewhere needlessly destroys precision that branch
		// refinement just established. In the backward orientation facts
		// cycle around a loop in the reverse direction, so the node that
		// accumulates repeated merges is the *source* of a retreating
		// edge (the latch), not its target. Every cycle contains a
		// retreating edge, so widening there still cuts every infinite
		// descent.
		s.widenAt = make([]bool, g.NumNodes())
		for e := range s.dfs.Retreating {
			if s.dir == Backward {
				s.widenAt[g.Edge(e).From] = true
			} else {
				s.widenAt[g.Edge(e).To] = true
			}
		}
	}
	return s
}

func (s *solver) push(n cfg.NodeID) {
	if s.ring != nil {
		s.ring.Push(n)
		return
	}
	if !s.inQueue[n] {
		s.inQueue[n] = true
		s.queue[s.qtail] = n
		s.qtail++
		if s.qtail == len(s.queue) {
			s.qtail = 0
		}
	}
}

func (s *solver) pop() cfg.NodeID {
	if s.ring != nil {
		return s.ring.Pop()
	}
	n := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.qhead = 0
	}
	s.inQueue[n] = false
	return n
}

func (s *solver) empty() bool {
	if s.ring != nil {
		return s.ring.Empty()
	}
	return s.qhead == s.qtail
}

// edgesOf returns the edges node facts leave through: out-edges forward,
// in-edges backward.
func (s *solver) edgesOf(nd *cfg.Node) []cfg.EdgeID {
	if s.dir == Backward {
		return nd.In
	}
	return nd.Out
}

// headOf returns the node a fact delivered along e is merged into.
func (s *solver) headOf(e *cfg.Edge) cfg.NodeID {
	if s.dir == Backward {
		return e.From
	}
	return e.To
}

// run is the chaotic worklist iteration, shared by both orientations:
// iteration starts at entry (exit backward) with p.Entry(), Transfer
// fills one slot per departing edge, and each delivered fact is merged
// into the node at the far end.
func (s *solver) run() {
	g, p, sol := s.g, s.p, s.sol
	start := g.Entry
	if s.dir == Backward {
		start = g.Exit
	}
	sol.In[start] = p.Entry()
	sol.Reached[start] = true
	s.push(start)

	for !s.empty() {
		n := s.pop()
		sol.Iterations++
		sol.Pops++

		nd := g.Node(n)
		edges := s.edgesOf(nd)
		if cap(s.out) < len(edges) {
			s.out = make([]Fact, len(edges))
		}
		out := s.out[:len(edges)]
		for i := range out {
			out[i] = nil
		}
		p.Transfer(g, n, sol.In[n], out)
		for slot, f := range out {
			if f == nil {
				continue
			}
			eid := edges[slot]
			sol.EdgeExecutable[eid] = true
			to := s.headOf(g.Edge(eid))
			if !sol.Reached[to] {
				sol.Reached[to] = true
				sol.In[to] = f
				s.push(to)
				continue
			}
			merged := p.Meet(sol.In[to], f)
			if !p.Equal(merged, sol.In[to]) {
				if s.widener != nil && s.widenAt[to] {
					s.changes[to]++
					if s.changes[to] > WidenThreshold {
						merged = s.widener.Widen(sol.In[to], merged)
					}
				}
				sol.In[to] = merged
				s.push(to)
			}
		}
	}
}

// recomputeOuts refreshes the narrowing arena's out-facts for node n:
// one Transfer into the shared scratch, then one arena slot per edge
// (nil marks a withheld fact).
func (s *solver) recomputeOuts(n cfg.NodeID) {
	nd := s.g.Node(n)
	edges := s.edgesOf(nd)
	if cap(s.out) < len(edges) {
		s.out = make([]Fact, len(edges))
	}
	out := s.out[:len(edges)]
	for i := range out {
		out[i] = nil
	}
	s.p.Transfer(s.g, n, s.sol.In[n], out)
	for i, eid := range edges {
		s.outFacts[eid] = out[i]
	}
	s.outValid[n] = true
}

// narrow runs NarrowingPasses decreasing re-iterations over the
// reached nodes in reverse postorder (reverse RPO backward, i.e.
// approximately exit-first), replacing (not accumulating) each node's
// fact with the meet over the facts its executable neighbors currently
// deliver along the connecting edges. Out-facts are cached lazily per
// node and invalidated when the node's own fact narrows.
func (s *solver) narrow() {
	g, p, sol := s.g, s.p, s.sol
	s.outFacts = make([]Fact, g.NumEdges())
	s.outValid = make([]bool, g.NumNodes())
	stop := g.Entry
	if s.dir == Backward {
		stop = g.Exit
	}
	order := s.dfs.RPOOrder
	for pass := 0; pass < NarrowingPasses; pass++ {
		for i := range s.outValid {
			s.outValid[i] = false
		}
		for idx := range order {
			n := order[idx]
			if s.dir == Backward {
				n = order[len(order)-1-idx]
			}
			if n == stop || !sol.Reached[n] {
				continue
			}
			sol.Iterations++
			var acc Fact
			nd := g.Node(n)
			arrivals := nd.In
			if s.dir == Backward {
				arrivals = nd.Out
			}
			for _, eid := range arrivals {
				e := g.Edge(eid)
				src := e.From
				if s.dir == Backward {
					src = e.To
				}
				if !sol.Reached[src] {
					continue
				}
				if !s.outValid[src] {
					s.recomputeOuts(src)
				}
				f := s.outFacts[eid]
				if f == nil {
					continue
				}
				if acc == nil {
					acc = f
				} else {
					acc = p.Meet(acc, f)
				}
			}
			if acc != nil && !p.Equal(acc, sol.In[n]) {
				sol.In[n] = acc
				// The node's own cached outs are stale now.
				s.outValid[n] = false
			}
		}
	}
}
