package liveness

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// packedDomain is the bitset kernel for liveness: live sets live as
// rows of one packed []uint64 arena, the block transfer mutates a
// scratch row in place, and the union meet is a word loop. The guide
// conditioning is identical to the boxed Problem's.
type packedDomain struct {
	g     *cfg.Graph
	nv    int
	bits  *kernel.Bits
	guide *dataflow.Solution
	uses  []ir.Var
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Backward }
func (d *packedDomain) Grow(rows int)                 { d.bits.Grow(rows) }
func (d *packedDomain) Boundary(dst int)              { d.bits.Clear(dst) }
func (d *packedDomain) Copy(dst, src int)             { d.bits.Copy(dst, src) }
func (d *packedDomain) Meet(dst, src int) bool        { return d.bits.Or(dst, src) }

// Transfer computes the block's live-in (BlockLiveIn, in place on
// scratch row 0) and delivers it to the executable in-edges.
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	if d.guide != nil && !d.guide.Reached[n] {
		return // node is dead code under the guide: propagate nothing
	}
	d.bits.Copy(scratch, in)
	nd := d.g.Node(n)
	switch nd.Kind {
	case cfg.TermBranch:
		d.add(scratch, nd.Cond)
	case cfg.TermReturn:
		d.add(scratch, nd.Ret)
	}
	for i := len(nd.Instrs) - 1; i >= 0; i-- {
		ins := &nd.Instrs[i]
		if ins.HasDst() {
			d.bits.Unset(scratch, int(ins.Dst))
		}
		d.uses = ins.Uses(d.uses[:0])
		for _, u := range d.uses {
			d.add(scratch, u)
		}
	}
	for i, eid := range nd.In {
		if d.guide != nil && !d.guide.EdgeExecutable[eid] {
			continue
		}
		slots[i] = 0
	}
}

func (d *packedDomain) add(row int, v ir.Var) {
	if v.Valid() {
		d.bits.Set(row, int(v))
	}
}

// Cells implements kernel.SparseDomain: one cell per register.
func (d *packedDomain) Cells() int { return d.nv }

// Chain implements kernel.SparseDomain. A liveness block writes exactly
// the bits it gens (instruction uses, the condition/return register) or
// kills (destinations); every other bit passes through untouched, and
// the executable-edge choice is static under the guide — so the uses
// mask stays empty.
func (d *packedDomain) Chain(n cfg.NodeID, defs, _ []uint64) {
	if d.guide != nil && !d.guide.Reached[n] {
		return // dead under the guide: transfers nothing
	}
	set := func(v ir.Var) {
		if v.Valid() {
			defs[int(v)/64] |= 1 << (uint32(v) % 64)
		}
	}
	nd := d.g.Node(n)
	switch nd.Kind {
	case cfg.TermBranch:
		set(nd.Cond)
	case cfg.TermReturn:
		set(nd.Ret)
	}
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		if ins.HasDst() {
			set(ins.Dst)
		}
		d.uses = ins.Uses(d.uses[:0])
		for _, u := range d.uses {
			set(u)
		}
	}
}

// MeetMasked implements kernel.SparseDomain (masked union).
func (d *packedDomain) MeetMasked(dst, src int, mask, dirty []uint64) bool {
	return d.bits.OrMasked(dst, src, mask, dirty)
}

func newPackedDomain(g *cfg.Graph, numVars int, guide *dataflow.Solution) *packedDomain {
	return &packedDomain{g: g, nv: numVars, bits: kernel.NewBits(numVars), guide: guide}
}

func materialize(s *kernel.Solver, d *packedDomain, numVars int) *Result {
	s.Run()
	sol := s.Materialize(func(row int) dataflow.Fact {
		return Set(append([]uint64(nil), d.bits.Row(row)...))
	})
	return &Result{G: d.g, Sol: sol, NumVars: numVars}
}

// AnalyzePacked runs live-variable analysis on the packed bitset
// kernel. The solution is pointwise equal to Analyze's.
func AnalyzePacked(g *cfg.Graph, numVars int, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, numVars, guide)
	return materialize(kernel.NewSolver(g, d), d, numVars)
}

// AnalyzeSparse runs live-variable analysis on the sparse def-use-chain
// solver. Facts, reachability, and edge executability are pointwise
// equal to the other backends'; iteration counts are lower.
func AnalyzeSparse(g *cfg.Graph, numVars int, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, numVars, guide)
	return materialize(kernel.NewSparseSolver(g, d), d, numVars)
}

// AnalyzeWith dispatches Analyze on the requested kernel backend.
func AnalyzeWith(g *cfg.Graph, numVars int, guide *dataflow.Solution, k dataflow.Kernel) *Result {
	switch k {
	case dataflow.KernelBoxed:
		return Analyze(g, numVars, guide)
	case dataflow.KernelSparse:
		return AnalyzeSparse(g, numVars, guide)
	}
	return AnalyzePacked(g, numVars, guide)
}
