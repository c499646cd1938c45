package intervals

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/ir"
)

// Env maps registers to intervals; a dataflow.Fact.
type Env []Interval

// NewEnv returns an environment with every register set to iv.
func NewEnv(numVars int, iv Interval) Env {
	e := make(Env, numVars)
	for i := range e {
		e[i] = iv
	}
	return e
}

// Clone copies the environment.
func (e Env) Clone() Env { return append(Env(nil), e...) }

// Meet hulls pointwise.
func (e Env) Meet(o Env) Env {
	out := make(Env, len(e))
	for i := range e {
		out[i] = e[i].Meet(o[i])
	}
	return out
}

// Widen extrapolates pointwise.
func (e Env) Widen(o Env) Env {
	out := make(Env, len(e))
	for i := range e {
		out[i] = e[i].Widen(o[i])
	}
	return out
}

// Equal compares pointwise.
func (e Env) Equal(o Env) bool {
	for i := range e {
		if e[i] != o[i] {
			return false
		}
	}
	return true
}

// EvalInstr computes the interval an instruction's destination takes.
func EvalInstr(in *ir.Instr, env Env) Interval {
	switch {
	case in.Op == ir.Const:
		return ConstI(in.K)
	case in.Op.Opaque() || in.Op == ir.Print || in.Op == ir.Nop:
		return Full()
	case in.Op.IsUnary():
		return EvalUn(in.Op, env[in.A])
	case in.Op.IsBinary():
		return EvalBin(in.Op, env[in.A], env[in.B])
	}
	return Full()
}

// TransferBlock symbolically executes node n, optionally reporting each
// instruction's interval.
func TransferBlock(g *cfg.Graph, n cfg.NodeID, in Env, vals bool) (Env, []Interval) {
	env := in.Clone()
	nd := g.Node(n)
	var out []Interval
	if vals {
		out = make([]Interval, len(nd.Instrs))
	}
	for i := range nd.Instrs {
		iv := EvalInstr(&nd.Instrs[i], env)
		if vals {
			out[i] = iv
		}
		if nd.Instrs[i].HasDst() {
			env[nd.Instrs[i].Dst] = iv
		}
	}
	return env, out
}

// Problem is the range-analysis data-flow problem.
type Problem struct {
	NumVars int
	// Conditional enables branch pruning and comparison refinement.
	Conditional bool
	// Infeasible, when non-nil, marks edges (indexed by cfg.EdgeID) a
	// prior feasibility analysis proved no execution can take; Transfer
	// withholds refined environments along them.
	Infeasible []bool
}

var (
	_ dataflow.Problem = (*Problem)(nil)
	_ dataflow.Widener = (*Problem)(nil)
)

// Entry returns the all-⊥ (full-range) environment.
func (p *Problem) Entry() dataflow.Fact { return NewEnv(p.NumVars, Full()) }

// Meet hulls two facts.
func (p *Problem) Meet(a, b dataflow.Fact) dataflow.Fact { return a.(Env).Meet(b.(Env)) }

// Widen extrapolates two facts (dataflow.Widener).
func (p *Problem) Widen(old, new dataflow.Fact) dataflow.Fact {
	return old.(Env).Widen(new.(Env))
}

// Equal compares two facts.
func (p *Problem) Equal(a, b dataflow.Fact) bool { return a.(Env).Equal(b.(Env)) }

// Transfer executes the block, refines comparison operands on each branch
// leg, and prunes legs whose conditions are decided.
func (p *Problem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	env, _ := TransferBlock(g, n, in.(Env), false)
	nd := g.Node(n)
	switch nd.Kind {
	case cfg.TermJump, cfg.TermReturn:
		out[0] = env
	case cfg.TermBranch:
		if !p.Conditional {
			out[0], out[1] = env, env.Clone()
			return
		}
		c := env[nd.Cond]
		if c.IsEmpty() {
			return // no evidence yet
		}
		nonZero := c.Hi > 0 || c.Lo < 0
		if nonZero {
			taken := env.Clone()
			refineBranch(nd, p.NumVars, taken, true)
			out[0] = taken
		}
		if c.Contains(0) {
			fall := env.Clone()
			refineBranch(nd, p.NumVars, fall, false)
			out[1] = fall
		}
	case cfg.TermHalt:
	}
	if p.Infeasible != nil {
		for i, eid := range nd.Out {
			if i < len(out) && int(eid) < len(p.Infeasible) && p.Infeasible[eid] {
				out[i] = nil
			}
		}
	}
}

// refineBranch sharpens env knowing the branch condition evaluated to
// taken. It looks up the condition's defining comparison inside the block
// (through lowering copies, via block-local value numbering) and clips
// the operands' intervals on each leg.
func refineBranch(nd *cfg.Node, numVars int, env Env, taken bool) {
	tokens := make([]int32, numVars)
	for i := range tokens {
		tokens[i] = int32(i)
	}
	next := int32(numVars)
	// defOp/defA/defB track the defining comparison of the condition's
	// value token, if any.
	type def struct {
		op           ir.Op
		tokA, tokB   int32
		isComparison bool
	}
	defs := map[int32]def{}
	for i := range nd.Instrs {
		in := &nd.Instrs[i]
		if !in.HasDst() {
			continue
		}
		if in.Op == ir.Copy {
			tokens[in.Dst] = tokens[in.A]
			continue
		}
		tok := next
		next++
		switch in.Op {
		case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
			defs[tok] = def{op: in.Op, tokA: tokens[in.A], tokB: tokens[in.B], isComparison: true}
		}
		tokens[in.Dst] = tok
	}
	condTok := tokens[nd.Cond]

	// The condition itself is 0 on the fall-through leg, non-zero on the
	// taken leg; clip every register holding its value.
	for v := range tokens {
		if tokens[v] != condTok {
			continue
		}
		if taken {
			iv := env[v]
			if iv.Contains(0) {
				// Only boundary zeros can be removed from an interval.
				if iv.Lo == 0 && iv.Hi > 0 {
					env[v] = env[v].Intersect(Range(1, PosInf))
				} else if iv.Hi == 0 && iv.Lo < 0 {
					env[v] = env[v].Intersect(Range(NegInf, -1))
				}
			}
		} else {
			env[v] = env[v].Intersect(ConstI(0))
		}
	}

	d, ok := defs[condTok]
	if !ok || !d.isComparison {
		return
	}
	op := d.op
	if !taken {
		op = negateCmp(op)
	}
	// Gather the registers still holding the operands' values.
	var as, bs []int
	for v := range tokens {
		if tokens[v] == d.tokA {
			as = append(as, v)
		}
		if tokens[v] == d.tokB {
			bs = append(bs, v)
		}
	}
	if len(as) == 0 && len(bs) == 0 {
		return
	}
	// Operand intervals (all regs in a group hold the same value).
	aIv, bIv := Full(), Full()
	if len(as) > 0 {
		aIv = env[as[0]]
	}
	if len(bs) > 0 {
		bIv = env[bs[0]]
	}
	newA, newB := refineCmp(op, aIv, bIv)
	for _, v := range as {
		env[v] = env[v].Intersect(newA)
	}
	for _, v := range bs {
		env[v] = env[v].Intersect(newB)
	}
}

func negateCmp(op ir.Op) ir.Op {
	switch op {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Lt:
		return ir.Ge
	case ir.Le:
		return ir.Gt
	case ir.Gt:
		return ir.Le
	case ir.Ge:
		return ir.Lt
	}
	return op
}

// refineCmp returns the clipping intervals for a and b knowing `a op b`
// holds.
func refineCmp(op ir.Op, a, b Interval) (Interval, Interval) {
	full := Full()
	switch op {
	case ir.Lt: // a < b: a ≤ b.Hi-1, b ≥ a.Lo+1
		return capHi(a, addSat(b.Hi, -1)), capLo(b, addSat(a.Lo, 1))
	case ir.Le:
		return capHi(a, b.Hi), capLo(b, a.Lo)
	case ir.Gt:
		return capLo(a, addSat(b.Lo, 1)), capHi(b, addSat(a.Hi, -1))
	case ir.Ge:
		return capLo(a, b.Lo), capHi(b, a.Hi)
	case ir.Eq:
		m := a.Intersect(b)
		if m.IsEmpty() {
			// Contradiction: this leg is actually dead; keep ⊥ clips
			// minimal by leaving operands untouched.
			return full, full
		}
		return m, m
	case ir.Ne:
		// Only boundary exclusions are expressible.
		if k, ok := b.IsConst(); ok {
			a = excludeBoundary(a, k)
		}
		if k, ok := a.IsConst(); ok {
			b = excludeBoundary(b, k)
		}
		return a, b
	}
	return full, full
}

func capHi(a Interval, hi int64) Interval {
	if hi == PosInf {
		return a
	}
	return a.Intersect(Range(NegInf, hi))
}

func capLo(a Interval, lo int64) Interval {
	if lo == NegInf {
		return a
	}
	return a.Intersect(Range(lo, PosInf))
}

func excludeBoundary(a Interval, k int64) Interval {
	if a.IsEmpty() {
		return a
	}
	if a.Lo == k && a.Hi > k {
		return Range(addSat(k, 1), a.Hi)
	}
	if a.Hi == k && a.Lo < k {
		return Range(a.Lo, addSat(k, -1))
	}
	return a
}

// Result is a solved range analysis.
type Result struct {
	G   *cfg.Graph
	Sol *dataflow.Solution
	n   int
}

// Analyze runs range analysis over g on the boxed solver, which widens
// at loop heads and narrows afterwards (the packed kernels solve only
// finite-height lattices).
func Analyze(g *cfg.Graph, numVars int, conditional bool) *Result {
	p := &Problem{NumVars: numVars, Conditional: conditional}
	return &Result{G: g, Sol: dataflow.Solve(g, p), n: numVars}
}

// EnvAt returns the environment at n's entry (all-⊤ when unreached).
func (r *Result) EnvAt(n cfg.NodeID) Env {
	if !r.Sol.Reached[n] {
		return NewEnv(r.n, EmptyI())
	}
	return r.Sol.In[n].(Env)
}

// Reached reports analysis reachability.
func (r *Result) Reached(n cfg.NodeID) bool { return r.Sol.Reached[n] }

// InstrIntervals returns each instruction's result interval at node n.
func (r *Result) InstrIntervals(n cfg.NodeID) []Interval {
	_, vals := TransferBlock(r.G, n, r.EnvAt(n), true)
	return vals
}

// BoundedCount returns how many pure destination-producing instructions
// have a finitely bounded result interval, statically and (when freq is
// non-nil) dynamically — the metric for qualified-vs-baseline range
// comparisons.
func BoundedCount(g *cfg.Graph, r *Result, freq []int64) (static int, dyn int64) {
	for _, nd := range g.Nodes {
		if !r.Reached(nd.ID) || len(nd.Instrs) == 0 {
			continue
		}
		vals := r.InstrIntervals(nd.ID)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.Op.IsPure() || !in.HasDst() {
				continue
			}
			if vals[i].Bounded() {
				static++
				if freq != nil {
					dyn += freq[nd.ID]
				}
			}
		}
	}
	return static, dyn
}
