package constprop

import (
	"encoding/binary"
	"math/bits"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// packedDomain is the SoA kernel for the constant lattice: environments
// live as rows of a (kind []uint8, val []int64) arena instead of boxed
// []Value slices. Cells are kept normalized (val = 0 unless Const), so
// raw cell comparison is exactly Env.Equal.
//
// In sparse mode (bot non-nil) the domain additionally tracks, per node
// row, two cell bitsets that let meets skip settled cells up front:
//
//   - bot: cells already at ⊥. The lattice only descends (⊤ → const →
//     ⊥), so a ⊥ destination cell can never change again — drop it
//     from the mask.
//   - top: cells still at ⊤. A ⊤ *source* cell is the meet identity —
//     the destination cell cannot change, so drop it too.
//
// On hot-path graphs most cells are one or the other (a variable is
// either untouched on the path, or unknown after an opaque merge), so
// the expensive full-mask first deliveries shrink to the few cells
// carrying actual constants. Both bitsets are maintained word-parallel:
// Copy installs the source's masks, Transfer re-derives the scratch
// row's masks from its final kind bytes in one branchless SWAR pass,
// and MeetMasked clears/sets bits exactly where it changes cells — so
// stale state from a previous Run is overwritten before it is ever
// read.
type packedDomain struct {
	g           *cfg.Graph
	conditional bool
	infeasible  []bool // optional per-EdgeID feasibility mask; masked slots stay -1
	cells       *kernel.KV
	nodeRows    int      // rows [0, nodeRows) are per-node rows
	bot         []uint64 // nodeRows × cw cells-at-⊥ bitsets; nil in dense mode
	top         []uint64 // nodeRows × cw cells-at-⊤ bitsets; nil in dense mode
	defBits     []uint64 // nodeRows × cw static def cells per node
	scratchBot  []uint64 // cw: ⊥ cells of the transfer scratch row
	scratchTop  []uint64 // cw: ⊤ cells of the transfer scratch row
}

const (
	pkTop    = uint8(Top)
	pkConst  = uint8(Const)
	pkBottom = uint8(Bottom)
)

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.cells.Grow(rows) }
func (d *packedDomain) Boundary(dst int) {
	d.cells.Fill(dst, pkBottom)
	if d.bot != nil && dst < d.nodeRows {
		b, t := d.botRow(dst), d.topRow(dst)
		left := d.cells.Width
		for w := range b {
			span := left
			if span > 64 {
				span = 64
			}
			if span == 64 {
				b[w] = ^uint64(0)
			} else {
				b[w] = 1<<span - 1
			}
			t[w] = 0
			left -= span
		}
	}
}

// Copy keeps the ⊥ bitsets in step without rescanning: a node-row
// source shares its bot row, and the only other source the sparse
// kernel copies from is the transfer scratch row, whose bot mask
// Transfer maintains incrementally in scratchBot.
func (d *packedDomain) Copy(dst, src int) {
	d.cells.Copy(dst, src)
	if d.bot != nil && dst < d.nodeRows {
		if src < d.nodeRows {
			copy(d.botRow(dst), d.botRow(src))
			copy(d.topRow(dst), d.topRow(src))
		} else {
			copy(d.botRow(dst), d.scratchBot)
			copy(d.topRow(dst), d.scratchTop)
		}
	}
}

// botRow returns node row r's cells-at-⊥ bitset.
func (d *packedDomain) botRow(r int) []uint64 {
	cw := (d.cells.Width + 63) / 64
	return d.bot[r*cw : (r+1)*cw : (r+1)*cw]
}

// topRow returns node row r's cells-at-⊤ bitset.
func (d *packedDomain) topRow(r int) []uint64 {
	cw := (d.cells.Width + 63) / 64
	return d.top[r*cw : (r+1)*cw : (r+1)*cw]
}

// defRow returns node r's static def-cell bitset (sparse mode only).
func (d *packedDomain) defRow(r cfg.NodeID) []uint64 {
	cw := (d.cells.Width + 63) / 64
	return d.defBits[int(r)*cw : (int(r)+1)*cw : (int(r)+1)*cw]
}

// Meet folds src into dst pointwise (Value.Meet over normalized cells).
func (d *packedDomain) Meet(dst, src int) bool {
	dk, dv := d.cells.Row(dst)
	sk, sv := d.cells.Row(src)
	changed := false
	for i := range dk {
		k, v := meetCell(dk[i], dv[i], sk[i], sv[i])
		if k != dk[i] || v != dv[i] {
			dk[i], dv[i] = k, v
			changed = true
		}
	}
	return changed
}

func meetCell(ak uint8, av int64, bk uint8, bv int64) (uint8, int64) {
	switch {
	case ak == pkTop:
		return bk, bv
	case bk == pkTop:
		return ak, av
	case ak == pkBottom || bk == pkBottom:
		return pkBottom, 0
	case av == bv:
		return ak, av
	default:
		return pkBottom, 0
	}
}

// evalCell is EvalInstr over SoA cells.
func evalCell(in *ir.Instr, k []uint8, v []int64) (uint8, int64) {
	switch {
	case in.Op == ir.Const:
		return pkConst, in.K
	case in.Op.Opaque() || in.Op == ir.Print || in.Op == ir.Nop:
		return pkBottom, 0
	case in.Op.IsUnary():
		switch k[in.A] {
		case pkConst:
			return pkConst, ir.EvalUn(in.Op, v[in.A])
		case pkTop:
			return pkTop, 0
		}
		return pkBottom, 0
	case in.Op.IsBinary():
		ak, bk := k[in.A], k[in.B]
		if ak == pkConst && bk == pkConst {
			return pkConst, ir.EvalBin(in.Op, v[in.A], v[in.B])
		}
		if ak == pkBottom || bk == pkBottom {
			return pkBottom, 0
		}
		return pkTop, 0
	}
	return pkBottom, 0
}

// Transfer symbolically executes the block in scratch row 0 and marks
// the executable out-edges — the Wegman-Zadek dispatch of the boxed
// Transfer, without the Env clones (both branch legs share the scratch
// row; the solver copies on delivery).
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.cells.Copy(scratch, in)
	k, v := d.cells.Row(scratch)
	nd := d.g.Node(n)
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		ck, cv := evalCell(ins, k, v)
		if ins.HasDst() {
			k[ins.Dst], v[ins.Dst] = ck, cv
		}
	}
	if d.bot != nil && in < d.nodeRows {
		// Bring the scratch row's ⊥/⊤ masks in step: outside the def
		// cells they are the input's; words holding defs are re-derived
		// from the final kind bytes in a branchless SWAR pass.
		copy(d.scratchBot, d.botRow(in))
		copy(d.scratchTop, d.topRow(in))
		for w, m := range d.defRow(n) {
			if m == 0 {
				continue
			}
			base := w * 64
			end := base + 64
			if end > len(k) {
				end = len(k)
			}
			bw, tw := kindMasks(k[base:end])
			d.scratchBot[w] = d.scratchBot[w]&^m | bw&m
			d.scratchTop[w] = d.scratchTop[w]&^m | tw&m
		}
	}
	switch nd.Kind {
	case cfg.TermJump, cfg.TermReturn:
		slots[0] = 0
	case cfg.TermBranch:
		if !d.conditional {
			slots[0], slots[1] = 0, 0
			return
		}
		switch k[nd.Cond] {
		case pkTop:
			// No evidence about the condition yet: neither leg is
			// known executable (optimistic).
		case pkConst:
			if v[nd.Cond] != 0 {
				slots[0] = 0
			} else {
				slots[1] = 0
			}
		default:
			slots[0], slots[1] = 0, 0
		}
	case cfg.TermHalt:
		// no successors
	}
	if d.infeasible != nil {
		for i, eid := range nd.Out {
			if i < len(slots) && int(eid) < len(d.infeasible) && d.infeasible[eid] {
				slots[i] = -1
			}
		}
	}
}

// Cells implements kernel.SparseDomain: one cell per register.
func (d *packedDomain) Cells() int { return d.cells.Width }

// Chain implements kernel.SparseDomain. A block's symbolic execution
// writes only its instruction destinations; it reads its instruction
// operands and, under conditional dispatch, the branch condition (whose
// value picks the executable legs). Every other register passes
// through.
func (d *packedDomain) Chain(n cfg.NodeID, defs, uses []uint64) {
	set := func(m []uint64, v ir.Var) {
		if v.Valid() {
			m[int(v)/64] |= 1 << (uint32(v) % 64)
		}
	}
	nd := d.g.Node(n)
	var buf []ir.Var
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		if ins.HasDst() {
			set(defs, ins.Dst)
		}
		buf = ins.Uses(buf[:0])
		for _, u := range buf {
			set(uses, u)
		}
	}
	if nd.Kind == cfg.TermBranch && d.conditional {
		set(uses, nd.Cond)
	}
}

// kindMasks computes the ⊥ and ⊤ cell bitsets of up to 64 kind bytes,
// eight cells per word op: a SWAR per-byte equality test (exact — the
// carry stays inside each byte) packs the matches of each 8-byte chunk
// into 8 mask bits via the kindergarten multiply. Deriving the masks
// from the data keeps the per-instruction eval loop clean and is
// inherently in step — there is no incremental bookkeeping to
// invalidate.
func kindMasks(k []uint8) (bw, tw uint64) {
	const (
		lo7 uint64 = 0x7f7f7f7f7f7f7f7f
		hi  uint64 = 0x8080808080808080
		mul uint64 = 0x0102040810204080 // packs per-byte high bits into bits 56..63
		bb  uint64 = 0x0101010101010101 * uint64(pkBottom)
	)
	shift := 0
	o := 0
	for ; o+8 <= len(k); o += 8 {
		x := binary.LittleEndian.Uint64(k[o:])
		y := x ^ bb // zero byte ⇔ cell at ⊥
		y = (y&lo7 + lo7) | y
		bw |= (^y & hi >> 7) * mul >> 56 << shift
		y = (x&lo7 + lo7) | x // zero byte ⇔ cell at ⊤ (pkTop is 0)
		tw |= (^y & hi >> 7) * mul >> 56 << shift
		shift += 8
	}
	for ; o < len(k); o++ {
		switch k[o] {
		case pkBottom:
			bw |= 1 << shift
		case pkTop:
			tw |= 1 << shift
		}
		shift++
	}
	return bw, tw
}

// MeetMasked implements kernel.SparseDomain: meetCell over exactly the
// masked cells. Words whose mask covers their whole cell span — the
// first delivery along an edge is a full meet — take a straight scan;
// sparser words iterate bit by bit so narrow deltas touch narrow
// slices of wide rows.
func (d *packedDomain) MeetMasked(dst, src int, mask, dirty []uint64) bool {
	dk, dv := d.cells.Row(dst)
	sk, sv := d.cells.Row(src)
	var bot, top, stop []uint64
	if d.bot != nil && dst < d.nodeRows {
		bot, top = d.botRow(dst), d.topRow(dst)
		if src < d.nodeRows {
			stop = d.topRow(src)
		} else {
			stop = d.scratchTop
		}
	}
	changed := false
	for w, m := range mask {
		if bot != nil {
			// ⊥ destination cells can never change again, and ⊤ source
			// cells are the meet identity; drop both from the mask.
			m &^= bot[w] | stop[w]
		}
		if m == 0 {
			continue
		}
		base := w * 64
		if base >= len(dk) {
			break
		}
		span := len(dk) - base
		if span > 64 {
			span = 64
		}
		var dw, bw uint64
		if span == 64 && m == ^uint64(0) || span < 64 && m == 1<<span-1 {
			wk, wv := dk[base:base+span], dv[base:base+span]
			xk, xv := sk[base:base+span], sv[base:base+span]
			for i := 0; i < span; i++ {
				k, v := meetCell(wk[i], wv[i], xk[i], xv[i])
				if k != wk[i] || v != wv[i] {
					wk[i], wv[i] = k, v
					dw |= 1 << i
					if k == pkBottom {
						bw |= 1 << i
					}
				}
			}
		} else {
			for ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if i >= span {
					break
				}
				k, v := meetCell(dk[base+i], dv[base+i], sk[base+i], sv[base+i])
				if k != dk[base+i] || v != dv[base+i] {
					dk[base+i], dv[base+i] = k, v
					dw |= 1 << i
					if k == pkBottom {
						bw |= 1 << i
					}
				}
			}
		}
		if dw != 0 {
			dirty[w] |= dw
			changed = true
			if bot != nil {
				// Changed cells were met with a non-⊤ source, so they
				// are no longer ⊤; the ones that hit ⊥ are settled.
				bot[w] |= bw
				top[w] &^= dw
			}
		}
	}
	return changed
}

// env boxes row r into a standard Env.
func (d *packedDomain) env(r int) Env {
	k, v := d.cells.Row(r)
	e := make(Env, len(k))
	for i := range k {
		e[i] = Value{Kind: Kind(k[i]), K: v[i]}
	}
	return e
}

// PackedSolver builds a reusable kernel solver for constant propagation
// over g: every Run() re-solves from scratch without allocating. The
// allocs-per-op gate in ci.sh benchmarks exactly this entry point;
// AnalyzePacked wraps it for one-shot use.
func PackedSolver(g *cfg.Graph, numVars int, conditional bool) *kernel.Solver {
	return kernel.NewSolver(g, newPackedDomain(g, numVars, conditional, nil))
}

// SparseSolver builds a reusable sparse def-use-chain solver for
// constant propagation over g: the chains are built once here, and
// every Run() re-solves sparsely without allocating. BenchmarkAnalyzeSparse
// and its allocs gate in ci.sh benchmark exactly this entry point.
func SparseSolver(g *cfg.Graph, numVars int, conditional bool) *kernel.Solver {
	return kernel.NewSparseSolver(g, newSparseDomain(g, numVars, conditional, nil))
}

func newPackedDomain(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *packedDomain {
	return &packedDomain{g: g, conditional: conditional, infeasible: infeasible, cells: kernel.NewKV(numVars)}
}

// newSparseDomain builds a packedDomain with the cells-at-⊥ tracking
// the sparse kernel exploits (dense solvers skip the bookkeeping).
func newSparseDomain(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *packedDomain {
	d := newPackedDomain(g, numVars, conditional, infeasible)
	cw := (numVars + 63) / 64
	d.nodeRows = g.NumNodes()
	d.bot = make([]uint64, d.nodeRows*cw)
	d.top = make([]uint64, d.nodeRows*cw)
	d.defBits = make([]uint64, d.nodeRows*cw)
	d.scratchBot = make([]uint64, cw)
	d.scratchTop = make([]uint64, cw)
	for _, nd := range g.Nodes {
		row := d.defRow(nd.ID)
		for i := range nd.Instrs {
			if ins := &nd.Instrs[i]; ins.HasDst() {
				row[int(ins.Dst)/64] |= 1 << (int(ins.Dst) % 64)
			}
		}
	}
	return d
}

func materialize(s *kernel.Solver, d *packedDomain) *Result {
	s.Run()
	return &Result{G: d.g, Sol: s.Materialize(func(row int) dataflow.Fact { return d.env(row) })}
}

// AnalyzePacked runs constant propagation on the packed SoA kernel. The
// solution is pointwise equal to Analyze's, iteration counts included.
func AnalyzePacked(g *cfg.Graph, numVars int, conditional bool) *Result {
	return AnalyzeMasked(g, numVars, conditional, dataflow.KernelPacked, nil)
}

// AnalyzeSparse runs constant propagation on the sparse def-use-chain
// solver. Facts, reachability, and edge executability are pointwise
// equal to the other backends'; iteration counts are lower (gate with
// oracle.DifferentialFacts, not Differential).
func AnalyzeSparse(g *cfg.Graph, numVars int, conditional bool) *Result {
	return AnalyzeMasked(g, numVars, conditional, dataflow.KernelSparse, nil)
}

// AnalyzeWith dispatches Analyze on the requested kernel backend.
func AnalyzeWith(g *cfg.Graph, numVars int, conditional bool, k dataflow.Kernel) *Result {
	return AnalyzeMasked(g, numVars, conditional, k, nil)
}

// AnalyzeMasked dispatches constant propagation on the requested kernel
// backend with an infeasible-edge mask: Transfer withholds facts along
// masked edges, so their targets see fewer meets (or become unreached).
// A nil mask masks nothing. All backends produce pointwise identical
// masked facts: the dense solvers skip withheld slots, and the sparse
// solver's pass-through only forwards along edges Transfer has already
// marked executable — which a masked edge never is.
func AnalyzeMasked(g *cfg.Graph, numVars int, conditional bool, k dataflow.Kernel, infeasible []bool) *Result {
	switch k {
	case dataflow.KernelBoxed:
		return AnalyzeBoxedMasked(g, numVars, conditional, infeasible)
	case dataflow.KernelSparse:
		d := newSparseDomain(g, numVars, conditional, infeasible)
		return materialize(kernel.NewSparseSolver(g, d), d)
	}
	d := newPackedDomain(g, numVars, conditional, infeasible)
	return materialize(kernel.NewSolver(g, d), d)
}
