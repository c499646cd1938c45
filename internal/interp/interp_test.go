package interp

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

func run(t *testing.T, src string, opt Options) *Result {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opt.CollectOutput = true
	res, err := Run(p, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
func main() {
	print(2 + 3 * 4);
	print((2 + 3) * 4);
	print(10 / 3);
	print(10 % 3);
	print(7 / 0);
	print(7 % 0);
	print(-5);
	print(!0);
	print(!7);
	print(1 << 4);
	print(256 >> 4);
	print(6 & 3);
	print(6 | 3);
	print(6 ^ 3);
}`, Options{})
	want := []ir.Value{14, 20, 3, 1, 0, 0, -5, 1, 0, 16, 16, 2, 7, 5}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestComparisons(t *testing.T) {
	res := run(t, `
func main() {
	print(1 < 2); print(2 < 1); print(2 <= 2);
	print(3 > 2); print(2 >= 3); print(4 == 4); print(4 != 4);
}`, Options{})
	want := []ir.Value{1, 0, 1, 1, 0, 1, 0}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
func main() {
	s = 0;
	i = 0;
	while (i < 5) {
		if (i % 2 == 0) { s = s + i; }
		i = i + 1;
	}
	print(s);
}`, Options{})
	if !reflect.DeepEqual(res.Output, []ir.Value{6}) {
		t.Errorf("output = %v, want [6]", res.Output)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// The right side of && must not consume input when the left is false.
	res := run(t, `
func main() {
	a = 0;
	if (a != 0 && input() > 0) { print(1); } else { print(2); }
	print(input());
}`, Options{Input: &SliceInput{Values: []ir.Value{42, 43}}})
	want := []ir.Value{2, 42}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	res := run(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { print(fib(10)); }`, Options{})
	if !reflect.DeepEqual(res.Output, []ir.Value{55}) {
		t.Errorf("output = %v, want [55]", res.Output)
	}
	if res.Calls < 2 {
		t.Errorf("Calls = %d, want many", res.Calls)
	}
}

func TestArgsAndInput(t *testing.T) {
	res := run(t, `
func main() {
	print(arg(0));
	print(arg(1));
	print(arg(9)); // out of range -> 0
	print(input());
	print(input());
	print(input()); // wraps around
}`, Options{
		Args:  []ir.Value{7, 8},
		Input: &SliceInput{Values: []ir.Value{1, 2}},
	})
	want := []ir.Value{7, 8, 0, 1, 2, 1}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestStepLimit(t *testing.T) {
	p, err := lang.Compile(`func main() { while (1) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Options{MaxSteps: 1000})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestDepthLimit(t *testing.T) {
	p, err := lang.Compile(`
func f(n) { return f(n + 1); }
func main() { print(f(0)); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Options{MaxDepth: 50})
	if !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("err = %v, want ErrDepthLimit", err)
	}
}

func TestBlockCountsAndDynInstrs(t *testing.T) {
	src := `
func main() {
	i = 0;
	while (i < 10) { i = i + 1; }
	print(i);
}`
	res := run(t, src, Options{})
	if res.DynInstrs == 0 {
		t.Fatal("DynInstrs = 0")
	}
	counts := res.BlockCount["main"]
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != res.Steps {
		t.Errorf("sum(BlockCount) = %d, want Steps = %d", total, res.Steps)
	}
	p, _ := lang.Compile(src)
	g := p.Main().G
	if counts[g.Entry] != 1 || counts[g.Exit] != 1 {
		t.Errorf("entry/exit counts = %d/%d, want 1/1", counts[g.Entry], counts[g.Exit])
	}
}

func TestEdgeHookSeesCompletePath(t *testing.T) {
	src := `
func main() {
	x = input();
	if (x > 0) { y = 1; } else { y = 2; }
	print(y);
}`
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Main().G
	var edges []cfg.EdgeID
	_, err = Run(p, Options{
		Input:  &SliceInput{Values: []ir.Value{5}},
		OnEdge: func(fn *cfg.Func, e cfg.EdgeID) { edges = append(edges, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("no edges observed")
	}
	// The observed edges must form a connected path from Entry to Exit.
	cur := g.Entry
	for _, e := range edges {
		if g.Edge(e).From != cur {
			t.Fatalf("edge %d starts at %d, expected %d", e, g.Edge(e).From, cur)
		}
		cur = g.Edge(e).To
	}
	if cur != g.Exit {
		t.Errorf("path ends at %d, want exit %d", cur, g.Exit)
	}
}

func TestSliceInputReset(t *testing.T) {
	in := &SliceInput{Values: []ir.Value{1, 2, 3}}
	in.Next()
	in.Next()
	in.Reset()
	if got := in.Next(); got != 1 {
		t.Errorf("after Reset, Next = %d, want 1", got)
	}
}

func TestMainReturnValue(t *testing.T) {
	p, err := lang.Compile(`func main() { return 41 + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Errorf("Ret = %d, want 42", res.Ret)
	}
}

// TestOpcodesMatchEval holds the interpreter's opcode switch to the IR's
// reference semantics: every unary and binary opcode, on operands that
// reach the edge cases (zero divisors, overflow, shift counts past 63),
// produces what ir.EvalUn and ir.EvalBin produce.
func TestOpcodesMatchEval(t *testing.T) {
	var ops []ir.Op
	for op := ir.Op(0); op < 32; op++ {
		if op.IsUnary() || op.IsBinary() {
			ops = append(ops, op)
		}
	}
	// main: v0 = arg 0; v1 = arg 1; then per opcode vk = op v0[, v1];
	// print vk.
	g := cfg.New("main")
	body := g.AddNode("body")
	nd := g.Node(body)
	nd.Instrs = []ir.Instr{
		{Op: ir.Arg, Dst: 0, A: ir.NoVar, B: ir.NoVar, K: 0},
		{Op: ir.Arg, Dst: 1, A: ir.NoVar, B: ir.NoVar, K: 1},
	}
	for i, op := range ops {
		dst := ir.Var(2 + i)
		in := ir.Instr{Op: op, Dst: dst, A: 0, B: ir.NoVar}
		if op.IsBinary() {
			in.B = 1
		}
		nd.Instrs = append(nd.Instrs, in, ir.Instr{Op: ir.Print, Dst: ir.NoVar, A: dst, B: ir.NoVar})
	}
	nd.Kind = cfg.TermReturn
	g.AddEdge(g.Entry, body)
	g.AddEdge(body, g.Exit)
	prog := cfg.NewProgram()
	prog.Add(&cfg.Func{Name: "main", VarNames: make([]string, 2+len(ops)), G: g})

	vals := []ir.Value{0, 1, -1, 2, 7, -7, 63, 64, -64, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, a := range vals {
		for _, b := range vals {
			res, err := Run(prog, Options{Args: []ir.Value{a, b}, CollectOutput: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				var want ir.Value
				if op.IsUnary() {
					want = ir.EvalUn(op, a)
				} else {
					want = ir.EvalBin(op, a, b)
				}
				if res.Output[i] != want {
					t.Errorf("%v(%d, %d) = %d, want %d", op, a, b, res.Output[i], want)
				}
			}
		}
	}
}

// TestDeepRecursionKeepsCallerFrames recurses far past the register
// stack's initial size, so the stack grows while callers are live; every
// caller must still read its own locals after its call returns.
func TestDeepRecursionKeepsCallerFrames(t *testing.T) {
	res := run(t, `
func f(n) {
	if (n == 0) { return 0; }
	a = n * 3;
	b = a + 1;
	c = b - n;
	d = c ^ 5;
	r = f(n - 1);
	return r + a + b + c + d;
}
func main() { print(f(900)); }`, Options{})
	var want ir.Value
	for n := ir.Value(1); n <= 900; n++ {
		a := n * 3
		b := a + 1
		c := b - n
		want += a + b + c + (c ^ 5)
	}
	if len(res.Output) != 1 || res.Output[0] != want {
		t.Errorf("output = %v, want [%d]", res.Output, want)
	}
	if res.Calls != 902 {
		t.Errorf("calls = %d, want 902", res.Calls)
	}
}

// chargedInstrs is Σ BlockCount × block length, which Result.DynInstrs
// equals on every run, failed or not.
func chargedInstrs(p *cfg.Program, res *Result) int64 {
	var n int64
	for name, counts := range res.BlockCount {
		for id, c := range counts {
			n += c * int64(len(p.Funcs[name].G.Node(cfg.NodeID(id)).Instrs))
		}
	}
	return n
}

func blocksBegun(res *Result) int64 {
	var n int64
	for _, counts := range res.BlockCount {
		for _, c := range counts {
			n += c
		}
	}
	return n
}

// TestStepLimitInNestedCall trips the step limit inside a callee. The
// caller's block is charged whole when it begins, so DynInstrs already
// holds the instructions after the call that never ran, and Steps counts
// the block whose start tripped the limit.
func TestStepLimitInNestedCall(t *testing.T) {
	p, err := lang.Compile(`
func spin() { while (1) { } return 0; }
func main() { x = 1; y = spin(); z = x + y; w = z * 2; print(w); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{MaxSteps: 100})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if res.Steps != 101 || blocksBegun(res) != 100 {
		t.Errorf("steps = %d, blocks begun = %d; want 101, 100", res.Steps, blocksBegun(res))
	}
	if got, want := res.DynInstrs, chargedInstrs(p, res); got != want {
		t.Errorf("DynInstrs = %d, want Σ BlockCount × length = %d", got, want)
	}
	// main's calling block holds the call and everything after it; all of
	// it is charged although the call never returned.
	g := p.Main().G
	var callBlock *cfg.Node
	for _, nd := range g.Nodes {
		for _, in := range nd.Instrs {
			if in.Op == ir.Call {
				callBlock = nd
			}
		}
	}
	if callBlock == nil || callBlock.Instrs[len(callBlock.Instrs)-1].Op == ir.Call {
		t.Fatal("test program must place instructions after the call in the calling block")
	}
	if res.BlockCount["main"][callBlock.ID] != 1 {
		t.Errorf("calling block begun %d times, want 1", res.BlockCount["main"][callBlock.ID])
	}
}

// TestDepthLimitPartialResult checks the partial Result of a run that
// exceeds the call depth: the activation that would go too deep is
// neither counted nor begun.
func TestDepthLimitPartialResult(t *testing.T) {
	p, err := lang.Compile(`
func f(n) { m = n + 1; return f(m) + m; }
func main() { print(f(0)); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{MaxDepth: 50})
	if !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("err = %v, want ErrDepthLimit", err)
	}
	if res.Calls != 50 {
		t.Errorf("calls = %d, want 50", res.Calls)
	}
	if res.Steps != blocksBegun(res) {
		t.Errorf("steps = %d, blocks begun = %d", res.Steps, blocksBegun(res))
	}
	if got, want := res.DynInstrs, chargedInstrs(p, res); got != want {
		t.Errorf("DynInstrs = %d, want Σ BlockCount × length = %d", got, want)
	}
}

// TestFramesStartZeroed reuses one stack slot for two activations: the
// second must not see the registers the first left behind.
func TestFramesStartZeroed(t *testing.T) {
	res := run(t, `
func f(a) {
	if (a) { x = 5; }
	return x;
}
func main() { print(f(1)); print(f(0)); }`, Options{})
	if want := []ir.Value{5, 0}; !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}
