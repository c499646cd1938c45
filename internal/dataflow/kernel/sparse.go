package kernel

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
)

// This file adds the sparse backend behind dataflow.KernelSparse: a
// def-use-chain solver over the same packed arenas the dense kernels
// use. The dense solver floods every cell of every row on every
// delivery; on hot path graphs, duplication multiplies vertices exactly
// where most variables are untouched, so almost all of that flooding
// re-merges values that cannot have changed. The sparse solver keeps,
// per node, a bitset of *dirty* cells — cells of its row that changed
// since its transfer last ran — and propagates only those:
//
//   - Deliveries are masked meets. After a transfer of n, the facts n
//     sends differ from what its edges last carried only at the cells n
//     defines plus the cells of n's input that changed, so the meet into
//     each head touches just that mask. The first delivery along an edge
//     is a full meet (nothing has been delivered yet).
//
//   - Transparent nodes are pass-through. When a popped node's dirty
//     cells miss every cell its transfer reads, the transfer's outputs
//     cannot change: it would mark the same edges executable, emit the
//     same values at its def cells, and copy its input through
//     everywhere else. So the solver forwards the dirty cells minus the
//     node's defs along the edges the node already feeds and skips the
//     transfer entirely. This is the def-use chain in both directions:
//     a changed cell rides from its def site through every transparent
//     node straight to its next uses, and dies at the first node that
//     redefines it without reading it (the new def kills the old one's
//     reach). Gen/kill domains read nothing — their def-cell outputs
//     are constants of the block — so after their first transfer every
//     node is transparent and the whole fixpoint runs on masked copies.
//
// The per-node def/use masks are the chains, built once per
// (graph, domain) by NewSparseSolver and cached with the arenas; Run
// stays allocation-free. The solver iterates in RPO priority like the
// dense kernels. The fixpoint of a finite-height lattice is
// order-independent, so facts, reachability, and edge executability
// match the dense backends pointwise while transfer counts legitimately
// drop; the facts-only differential (oracle.DifferentialFacts) is the
// correctness gate.
type SparseDomain interface {
	Domain
	// Cells returns the number of lattice cells per row — the width the
	// def/use masks and dirty sets are sized to.
	Cells() int
	// Chain records node n's def-use footprint into two caller-zeroed
	// bitsets over cells: defs gets every cell Transfer(n) may write
	// with a value different from its input (instruction destinations,
	// gen/kill bits, branch-refinement targets); uses gets every cell it
	// reads (instruction operands, branch conditions) — including cells
	// it also defines, since a transfer that reads x before redefining
	// it still depends on x's input value. The contract the sparse
	// solver relies on: the fact leaving any edge equals the input at
	// every cell outside defs, and both the def-cell outputs and the
	// executable-edge choice depend only on input cells in uses. A
	// gen/kill domain whose def-cell outputs are block constants
	// therefore reports empty uses. Masks must over-approximate —
	// missing a cell is unsound, extra cells only cost sharpness.
	// Transfer's edge choice must also be monotone: as the input
	// descends, an edge once marked executable stays marked (true of
	// Wegman-Zadek dispatch, where conditions only descend
	// ⊤ → const → ⊥).
	Chain(n cfg.NodeID, defs, uses []uint64)
	// MeetMasked folds the masked cells of row src into row dst, records
	// every cell it changes in dirty, and reports whether dst changed.
	// Cells outside mask must be left alone (as if src held ⊤ there).
	// Equivalent to Meet when mask covers every cell.
	MeetMasked(dst, src int, mask, dirty []uint64) bool
}

// sparse is the chain and delta state hanging off a Solver built by
// NewSparseSolver. The chains (defs, uses) are graph structure and
// survive across Runs; dirty and transferred are per-Run iteration
// state.
type sparse struct {
	sd SparseDomain
	cw int // words per cell bitset

	defs        []uint64 // N×cw: cells each node's transfer defines
	uses        []uint64 // N×cw: cells each node's transfer reads
	dirty       []uint64 // N×cw: cells changed since the node last ran
	mask        []uint64 // cw scratch: dirty ∪ defs during delivery
	full        []uint64 // cw all-ones (first deliveries, seed nodes)
	transferred []bool   // node has run its transfer at least once
}

func (sp *sparse) row(a []uint64, n cfg.NodeID) []uint64 {
	o := int(n) * sp.cw
	return a[o : o+sp.cw : o+sp.cw]
}

func (sp *sparse) reset() {
	for i := range sp.dirty {
		sp.dirty[i] = 0
	}
	for i := range sp.transferred {
		sp.transferred[i] = false
	}
}

func disjointWords(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

func clearWords(a []uint64) {
	for i := range a {
		a[i] = 0
	}
}

// NewSparseSolver sizes d's arena for g, builds the def-use chains, and
// preallocates all solver state. Run re-solves sparsely any number of
// times without allocating.
func NewSparseSolver(g *cfg.Graph, d SparseDomain) *Solver {
	s := NewSolver(g, d)
	n := g.NumNodes()
	cw := (d.Cells() + 63) / 64
	sp := &sparse{
		sd:          d,
		cw:          cw,
		defs:        make([]uint64, n*cw),
		uses:        make([]uint64, n*cw),
		dirty:       make([]uint64, n*cw),
		mask:        make([]uint64, cw),
		full:        make([]uint64, cw),
		transferred: make([]bool, n),
	}
	for i := range sp.full {
		sp.full[i] = ^uint64(0)
	}
	for id := 0; id < n; id++ {
		d.Chain(cfg.NodeID(id), sp.row(sp.defs, cfg.NodeID(id)), sp.row(sp.uses, cfg.NodeID(id)))
	}
	s.sp = sp
	return s
}

// runSparse is the sparse counterpart of the dense loop in Run; the
// solver state has already been reset. Pops counts every worklist pop,
// Iterations only the pops that ran a transfer — the dense-comparable
// effort metric.
func (s *Solver) runSparse() {
	g, sp := s.g, s.sp
	d := sp.sd
	start := g.Entry
	if s.dir == dataflow.Backward {
		start = g.Exit
	}
	d.Boundary(int(start))
	s.Reached[start] = true
	copy(sp.row(sp.dirty, start), sp.full)
	s.push(start)

	for !s.empty() {
		n := s.pop()
		s.Pops++
		dn := sp.row(sp.dirty, n)
		nd := g.Node(n)
		edges := nd.Out
		if s.dir == dataflow.Backward {
			edges = nd.In
		}

		if sp.transferred[n] && disjointWords(dn, sp.row(sp.uses, n)) {
			// n reads none of the changed cells: its transfer would mark
			// the same edges and emit the same def-cell values, so skip
			// it. Changed cells n redefines die here — the new def kills
			// their reach — and the rest copy through, so forward
			// dirty−defs along the edges n already feeds.
			fwd := sp.mask
			var rest uint64
			for i, dw := range sp.row(sp.defs, n) {
				fwd[i] = dn[i] &^ dw
				rest |= fwd[i]
			}
			if rest != 0 {
				for _, eid := range edges {
					if !s.EdgeExecutable[eid] {
						continue
					}
					e := g.Edge(eid)
					to := e.To
					if s.dir == dataflow.Backward {
						to = e.From
					}
					if d.MeetMasked(int(to), int(n), fwd, sp.row(sp.dirty, to)) {
						s.push(to)
					}
				}
			}
			clearWords(dn)
			continue
		}

		s.Iterations++
		sl := s.slots[:len(edges)]
		for i := range sl {
			sl[i] = -1
		}
		d.Transfer(n, int(n), s.scratch, sl)
		// The facts leaving n can differ from what its edges last
		// carried only at the cells n defines plus the input cells that
		// changed since the last transfer.
		defs := sp.row(sp.defs, n)
		for i := range sp.mask {
			sp.mask[i] = dn[i] | defs[i]
		}
		for slot, sub := range sl {
			if sub < 0 {
				continue
			}
			eid := edges[slot]
			first := !s.EdgeExecutable[eid]
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
				copy(sp.row(sp.dirty, to), sp.full)
				s.push(to)
				continue
			}
			m := sp.mask
			if first {
				m = sp.full // nothing delivered along this edge yet
			}
			if d.MeetMasked(int(to), src, m, sp.row(sp.dirty, to)) {
				s.push(to)
			}
		}
		clearWords(dn)
		sp.transferred[n] = true
	}
}
