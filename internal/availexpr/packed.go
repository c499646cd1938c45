package availexpr

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
)

// instrFX is one instruction's precomputed effect on an availability
// row: the expression bit it generates (-1 for none) and the kill mask
// of its destination write (nil for instructions without one). The
// packed domain resolves expression numbers once per graph, so the hot
// transfer loop never touches the universe's hash map.
type instrFX struct {
	expr int32
	kill []uint64
}

// packedDomain is the bitset kernel for available expressions:
// intersection meet over packed words, kill masks applied word-wise.
type packedDomain struct {
	g     *cfg.Graph
	u     *Universe
	bits  *kernel.Bits
	guide *dataflow.Solution
	fx    [][]instrFX // per node, per instruction
}

func newPackedDomain(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *packedDomain {
	d := &packedDomain{
		g:     g,
		u:     u,
		bits:  &kernel.Bits{Words: u.words},
		guide: guide,
		fx:    make([][]instrFX, g.NumNodes()),
	}
	for _, nd := range g.Nodes {
		if len(nd.Instrs) == 0 {
			continue
		}
		fx := make([]instrFX, len(nd.Instrs))
		for i := range nd.Instrs {
			ins := &nd.Instrs[i]
			fx[i].expr = -1
			if e, ok := exprOf(ins); ok {
				fx[i].expr = int32(u.Index(e))
			}
			if ins.HasDst() {
				fx[i].kill = u.useMask[ins.Dst]
			}
		}
		d.fx[nd.ID] = fx
	}
	return d
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.bits.Grow(rows) }
func (d *packedDomain) Boundary(dst int)              { d.bits.Clear(dst) }
func (d *packedDomain) Copy(dst, src int)             { d.bits.Copy(dst, src) }
func (d *packedDomain) Meet(dst, src int) bool        { return d.bits.And(dst, src) }

// Transfer pushes availability through the block (gen the expression,
// then kill everything reading the destination) into scratch row 0 and
// delivers it to the executable out-edges.
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	if d.guide != nil && !d.guide.Reached[n] {
		return
	}
	d.bits.Copy(scratch, in)
	for _, fx := range d.fx[n] {
		if fx.expr >= 0 {
			d.bits.Set(scratch, int(fx.expr))
		}
		if fx.kill != nil {
			d.bits.AndNot(scratch, fx.kill)
		}
	}
	nd := d.g.Node(n)
	for i, eid := range nd.Out {
		if d.guide != nil && !d.guide.EdgeExecutable[eid] {
			continue
		}
		slots[i] = 0
	}
}

// Cells implements kernel.SparseDomain: one cell per expression bit.
// The whole word span counts, so the sparse solver's masks line up with
// the arena rows word for word.
func (d *packedDomain) Cells() int { return d.u.words * 64 }

// Chain implements kernel.SparseDomain. An availability block writes
// exactly the bits it gens (the expressions it computes) or kills (the
// kill masks of its destination writes); everything else passes
// through, and the executable-edge choice is static under the guide.
func (d *packedDomain) Chain(n cfg.NodeID, defs, _ []uint64) {
	if d.guide != nil && !d.guide.Reached[n] {
		return
	}
	for _, fx := range d.fx[n] {
		if fx.expr >= 0 {
			defs[int(fx.expr)/64] |= 1 << (uint32(fx.expr) % 64)
		}
		if fx.kill != nil {
			for i := range fx.kill {
				defs[i] |= fx.kill[i]
			}
		}
	}
}

// MeetMasked implements kernel.SparseDomain (masked intersection).
func (d *packedDomain) MeetMasked(dst, src int, mask, dirty []uint64) bool {
	return d.bits.AndMasked(dst, src, mask, dirty)
}

func materialize(s *kernel.Solver, d *packedDomain) *Result {
	s.Run()
	sol := s.Materialize(func(row int) dataflow.Fact {
		return Set(append([]uint64(nil), d.bits.Row(row)...))
	})
	// The boxed path hangs the Problem off the result for callers that
	// re-run TransferBlock; give them the same view.
	return &Result{G: d.g, U: d.u, P: &Problem{U: d.u, Guide: d.guide}, Sol: sol}
}

// AnalyzePacked runs available-expressions on the packed bitset kernel
// using the shared universe u. The solution is pointwise equal to
// Analyze's.
func AnalyzePacked(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, u, guide)
	return materialize(kernel.NewSolver(g, d), d)
}

// AnalyzeSparse runs available-expressions on the sparse def-use-chain
// solver; facts match the other backends pointwise.
func AnalyzeSparse(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, u, guide)
	return materialize(kernel.NewSparseSolver(g, d), d)
}

// AnalyzeWith dispatches Analyze on the requested kernel backend.
func AnalyzeWith(g *cfg.Graph, u *Universe, guide *dataflow.Solution, k dataflow.Kernel) *Result {
	switch k {
	case dataflow.KernelBoxed:
		return Analyze(g, u, guide)
	case dataflow.KernelSparse:
		return AnalyzeSparse(g, u, guide)
	}
	return AnalyzePacked(g, u, guide)
}
