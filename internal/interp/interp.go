// Package interp executes CFG programs deterministically.
//
// The interpreter is pathflow's stand-in for the paper's instrumented
// native runs: it executes a program on a given input, counts dynamic
// instructions (the paper's unit of measure), exposes per-block execution
// counts, and offers edge/block hooks that the Ball-Larus profiler
// (internal/bl) and the i-cache model (internal/machine) attach to.
package interp

import (
	"errors"
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/ir"
)

// InputSource supplies the values returned by the language's input()
// builtin.
type InputSource interface {
	Next() ir.Value
}

// SliceInput replays a fixed sequence, wrapping around at the end so runs
// of any length are deterministic. An empty SliceInput yields zeros.
type SliceInput struct {
	Values []ir.Value
	pos    int
}

// Next returns the next input value.
func (s *SliceInput) Next() ir.Value {
	if len(s.Values) == 0 {
		return 0
	}
	v := s.Values[s.pos]
	s.pos++
	if s.pos == len(s.Values) {
		s.pos = 0
	}
	return v
}

// Reset rewinds the stream to its beginning.
func (s *SliceInput) Reset() { s.pos = 0 }

// FuncInput adapts a function to an InputSource.
type FuncInput func() ir.Value

// Next returns the next input value.
func (f FuncInput) Next() ir.Value { return f() }

// Options configures a run.
type Options struct {
	// Args are the run's fixed parameters, read by arg(k); out-of-range
	// reads yield 0.
	Args []ir.Value
	// Input feeds input(); nil behaves as an endless zero stream.
	Input InputSource
	// MaxSteps bounds the number of executed basic blocks (0 means the
	// package default of 50 million). Exceeding it aborts the run.
	MaxSteps int64
	// MaxDepth bounds call-stack depth (0 means the default of 1000).
	MaxDepth int
	// CollectOutput keeps print() values in Result.Output.
	CollectOutput bool

	// OnEnter fires at each activation of a function, before its entry
	// block. OnEdge fires for every control-flow edge traversed,
	// including the edge out of Entry and the edge into Exit. OnBlock
	// fires when a block begins executing (including Entry and Exit).
	OnEnter func(fn *cfg.Func)
	OnEdge  func(fn *cfg.Func, e cfg.EdgeID)
	OnBlock func(fn *cfg.Func, n cfg.NodeID)
	OnExit  func(fn *cfg.Func)
	// OnBlockEnv fires like OnBlock but also exposes the activation's
	// live register file, letting tests check data-flow claims against
	// actual execution. The callee must not retain or modify regs.
	OnBlockEnv func(fn *cfg.Func, n cfg.NodeID, regs []ir.Value)
}

// Result summarizes a run.
//
// When Run returns an error the Result is partial. Steps counts the
// blocks begun (Σ BlockCount) plus, on ErrStepLimit, the block whose
// start tripped the limit. DynInstrs is charged a whole block at a time
// when the block begins, so it always equals Σ BlockCount[f][n] ×
// len(Instrs of n): if a limit trips inside a nested call, the calling
// block's instructions after the call are already counted although they
// never ran. On a successful run both are exact.
type Result struct {
	// Ret is main's return value (0 for void).
	Ret ir.Value
	// Output holds print()ed values when Options.CollectOutput is set.
	Output []ir.Value
	// BlockCount[fname][node] is how many times each block executed.
	BlockCount map[string][]int64
	// DynInstrs is the total number of IR instructions executed — the
	// paper's "dynamic instructions". Terminators are not counted.
	DynInstrs int64
	// Steps is the number of basic blocks executed.
	Steps int64
	// Calls is the number of function activations, including main.
	Calls int64
}

// Default limits.
const (
	DefaultMaxSteps = 50_000_000
	DefaultMaxDepth = 1000
)

// ErrStepLimit is returned when a run exceeds Options.MaxSteps.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrDepthLimit is returned when a run exceeds Options.MaxDepth.
var ErrDepthLimit = errors.New("interp: call depth limit exceeded")

type machine struct {
	opt   Options
	res   *Result
	funcs map[string]callee
	// stack holds the activations' registers: a frame is the slice
	// [base, base+NumVars) and a callee's frame starts where its
	// caller's ends. When a call needs more room, stack is replaced by
	// a larger array and the new frame is cut from it; the outer frames
	// keep running in the array they were cut from, so no two live
	// frames share memory and none has to move.
	stack []ir.Value
}

// callee is a function with its block counters, resolved by name once
// per run.
type callee struct {
	fn     *cfg.Func
	counts []int64
}

// initialStack is the register stack's starting size in values.
const initialStack = 1024

// Run executes prog from its main function.
func Run(prog *cfg.Program, opt Options) (*Result, error) {
	main := prog.Main()
	if main == nil {
		return nil, errors.New("interp: program has no functions")
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = DefaultMaxSteps
	}
	if opt.MaxDepth == 0 {
		opt.MaxDepth = DefaultMaxDepth
	}
	m := &machine{
		opt:   opt,
		res:   &Result{BlockCount: make(map[string][]int64, len(prog.Funcs))},
		funcs: make(map[string]callee, len(prog.Funcs)),
		stack: make([]ir.Value, max(initialStack, main.NumVars())),
	}
	for name, f := range prog.Funcs {
		counts := make([]int64, f.G.NumNodes())
		m.res.BlockCount[name] = counts
		m.funcs[name] = callee{fn: f, counts: counts}
	}
	ret, err := m.call(callee{fn: main, counts: m.res.BlockCount[main.Name]}, 0, 0)
	if err != nil {
		return m.res, err
	}
	m.res.Ret = ret
	return m.res, nil
}

func (m *machine) input() ir.Value {
	if m.opt.Input == nil {
		return 0
	}
	return m.opt.Input.Next()
}

func (m *machine) arg(k ir.Value) ir.Value {
	if k < 0 || k >= int64(len(m.opt.Args)) {
		return 0
	}
	return m.opt.Args[k]
}

// enter lays out c's frame at base, directly above the caller's frame
// regs, copies the call's argument registers into c's parameters and
// runs the activation.
func (m *machine) enter(c callee, regs []ir.Value, args []ir.Var, base, depth int) (ir.Value, error) {
	end := base + c.fn.NumVars()
	if end > len(m.stack) {
		m.stack = make([]ir.Value, max(2*len(m.stack), end))
	}
	frame := m.stack[base:end]
	clear(frame)
	for i, p := range c.fn.Params {
		if i < len(args) {
			frame[p] = regs[args[i]]
		}
	}
	return m.call(c, base, depth)
}

// call runs one activation of c.fn whose frame, parameters already set,
// starts at base.
func (m *machine) call(c callee, base, depth int) (ir.Value, error) {
	fn := c.fn
	if depth >= m.opt.MaxDepth {
		return 0, fmt.Errorf("%w (%d frames) in %s", ErrDepthLimit, depth, fn.Name)
	}
	if m.opt.OnEnter != nil {
		m.opt.OnEnter(fn)
	}
	res := m.res
	res.Calls++
	g := fn.G
	top := base + fn.NumVars()
	regs := m.stack[base:top:top]
	counts := c.counts
	onBlock, onBlockEnv, onEdge := m.opt.OnBlock, m.opt.OnBlockEnv, m.opt.OnEdge
	cur := g.Entry
	var retVal ir.Value
	for {
		res.Steps++
		if res.Steps > m.opt.MaxSteps {
			return 0, fmt.Errorf("%w (%d blocks) in %s", ErrStepLimit, m.opt.MaxSteps, fn.Name)
		}
		counts[cur]++
		if onBlock != nil {
			onBlock(fn, cur)
		}
		if onBlockEnv != nil {
			onBlockEnv(fn, cur, regs)
		}
		nd := g.Nodes[cur]
		res.DynInstrs += int64(len(nd.Instrs))
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			// One case per opcode, so the switch compiles to a jump
			// table. The arithmetic repeats ir.EvalBin and ir.EvalUn,
			// which TestOpcodesMatchEval holds it to: calling them from
			// grouped cases instead made cold suite jobs ~24% slower.
			switch in.Op {
			case ir.Nop:
			case ir.Const:
				regs[in.Dst] = in.K
			case ir.Copy:
				regs[in.Dst] = regs[in.A]
			case ir.Neg:
				regs[in.Dst] = -regs[in.A]
			case ir.Not:
				regs[in.Dst] = b2v(regs[in.A] == 0)
			case ir.Add:
				regs[in.Dst] = regs[in.A] + regs[in.B]
			case ir.Sub:
				regs[in.Dst] = regs[in.A] - regs[in.B]
			case ir.Mul:
				regs[in.Dst] = regs[in.A] * regs[in.B]
			case ir.Div:
				if b := regs[in.B]; b != 0 {
					regs[in.Dst] = regs[in.A] / b
				} else {
					regs[in.Dst] = 0
				}
			case ir.Mod:
				if b := regs[in.B]; b != 0 {
					regs[in.Dst] = regs[in.A] % b
				} else {
					regs[in.Dst] = 0
				}
			case ir.Eq:
				regs[in.Dst] = b2v(regs[in.A] == regs[in.B])
			case ir.Ne:
				regs[in.Dst] = b2v(regs[in.A] != regs[in.B])
			case ir.Lt:
				regs[in.Dst] = b2v(regs[in.A] < regs[in.B])
			case ir.Le:
				regs[in.Dst] = b2v(regs[in.A] <= regs[in.B])
			case ir.Gt:
				regs[in.Dst] = b2v(regs[in.A] > regs[in.B])
			case ir.Ge:
				regs[in.Dst] = b2v(regs[in.A] >= regs[in.B])
			case ir.And:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case ir.Or:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case ir.Xor:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case ir.Shl:
				regs[in.Dst] = regs[in.A] << (uint64(regs[in.B]) & 63)
			case ir.Shr:
				regs[in.Dst] = regs[in.A] >> (uint64(regs[in.B]) & 63)
			case ir.Input:
				regs[in.Dst] = m.input()
			case ir.Arg:
				regs[in.Dst] = m.arg(in.K)
			case ir.Call:
				c, ok := m.funcs[in.Callee]
				if !ok {
					return 0, fmt.Errorf("interp: %s calls undefined function %q", fn.Name, in.Callee)
				}
				v, err := m.enter(c, regs, in.Args, top, depth+1)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case ir.Print:
				if m.opt.CollectOutput {
					res.Output = append(res.Output, regs[in.A])
				}
			default:
				return 0, fmt.Errorf("interp: unknown opcode %v in %s", in.Op, fn.Name)
			}
		}
		var next cfg.EdgeID
		switch nd.Kind {
		case cfg.TermJump:
			next = nd.Out[0]
		case cfg.TermBranch:
			if regs[nd.Cond] != 0 {
				next = nd.Out[0]
			} else {
				next = nd.Out[1]
			}
		case cfg.TermReturn:
			if nd.Ret.Valid() {
				retVal = regs[nd.Ret]
			}
			next = nd.Out[0]
		case cfg.TermHalt:
			if m.opt.OnExit != nil {
				m.opt.OnExit(fn)
			}
			return retVal, nil
		default:
			return 0, fmt.Errorf("interp: node %d of %s has unknown terminator", cur, fn.Name)
		}
		if onEdge != nil {
			onEdge(fn, next)
		}
		cur = g.Edges[next].To
	}
}

func b2v(b bool) ir.Value {
	if b {
		return 1
	}
	return 0
}
