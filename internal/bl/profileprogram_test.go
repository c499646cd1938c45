package bl_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathflow/internal/bench"
	. "pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

// checkMatchesTracker runs prog twice, once through ProfileProgram and
// once through the Tracker reference, and requires the same profiles:
// the same entry keys, counts and edge sequences and the same R per
// function. Σ Profile.DynInstrs must also equal the run's DynInstrs.
// Every function must be numbered except those named in overflowing,
// whose numbering must fail with ErrTooManyPaths, so the comparison
// never degenerates into Tracker against Tracker.
func checkMatchesTracker(t *testing.T, prog *cfg.Program, opts func() interp.Options, overflowing ...string) {
	t.Helper()
	for name, fn := range prog.Funcs {
		_, err := NewNumbering(fn.G, RecordingEdges(fn.G))
		if slices.Contains(overflowing, name) {
			if !errors.Is(err, ErrTooManyPaths) {
				t.Fatalf("numbering %s: err = %v, want ErrTooManyPaths", name, err)
			}
		} else if err != nil {
			t.Fatalf("numbering %s: %v", name, err)
		}
	}
	got, res, err := ProfileProgram(prog, opts())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := TrackProgram(prog, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != len(want.Funcs) {
		t.Fatalf("%d function profiles, reference has %d", len(got.Funcs), len(want.Funcs))
	}
	var dyn int64
	for name, w := range want.Funcs {
		g := got.Funcs[name]
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: profile differs from the tracker's\ngot:\n%swant:\n%s",
				name, g.String(prog.Funcs[name].G), w.String(prog.Funcs[name].G))
		}
		dyn += g.DynInstrs(prog.Funcs[name].G)
	}
	if dyn != res.DynInstrs {
		t.Errorf("profiles cover %d dynamic instructions, the run executed %d", dyn, res.DynInstrs)
	}
}

// bottomTestedLoops builds what the language cannot express: branches
// whose second leg is a back edge. Such a recording edge follows a
// non-recording sibling, so its terminal value is not zero and a
// profiler that dropped it would confuse paths. H reads input() and
// loops on itself until it reads non-zero; B reads input() and returns
// on non-zero, else goes back to H.
func bottomTestedLoops() *cfg.Program {
	g := cfg.New("main")
	h, b, r := g.AddNode("H"), g.AddNode("B"), g.AddNode("R")
	for v, n := range []cfg.NodeID{h, b} {
		nd := g.Node(n)
		nd.Instrs = []ir.Instr{{Op: ir.Input, Dst: ir.Var(v), A: ir.NoVar, B: ir.NoVar}}
		nd.Kind, nd.Cond = cfg.TermBranch, ir.Var(v)
	}
	g.Node(r).Kind = cfg.TermReturn
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, b)
	g.AddEdge(h, h)
	g.AddEdge(b, r)
	g.AddEdge(b, h)
	g.AddEdge(r, g.Exit)
	prog := cfg.NewProgram()
	prog.Add(&cfg.Func{Name: "main", VarNames: make([]string, 2), G: g})
	return prog
}

// overflowSrc is a loop whose body is 64 sequential branches, so its
// main has about 2^64 Ball-Larus paths and cannot be numbered; it calls
// a small function that can, so one run mixes both profilers.
func overflowSrc() string {
	var b strings.Builder
	b.WriteString("func pick(x) { if (x & 1) { return x >> 1; } return x + 3; }\n")
	b.WriteString("func main() {\n\tn = arg(0);\n\ti = 0;\n\ts = 0;\n\twhile (i < n) {\n\t\tx = input();\n")
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&b, "\t\tif ((x >> %d) & 1) { s = s + %d; }\n", k%31, k+1)
	}
	b.WriteString("\t\ts = s + pick(x);\n\t\ti = i + 1;\n\t}\n\tprint(s);\n}\n")
	return b.String()
}

func TestProfileProgramMatchesTracker(t *testing.T) {
	for _, bm := range bench.All() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(bm.Name+"/train", func(t *testing.T) { checkMatchesTracker(t, prog, bm.TrainOptions) })
		t.Run(bm.Name+"/ref", func(t *testing.T) { checkMatchesTracker(t, prog, bm.RefOptions) })
	}
	t.Run("recursive", func(t *testing.T) {
		prog, err := lang.Compile(recursiveSrc)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesTracker(t, prog, func() interp.Options { return interp.Options{} })
	})
	t.Run("closing-values", func(t *testing.T) {
		prog := bottomTestedLoops()
		checkMatchesTracker(t, prog, func() interp.Options {
			return interp.Options{Input: &interp.SliceInput{Values: []ir.Value{0, 0, 1, 0, 1, 0, 0, 1, 1}}}
		})
	})
	t.Run("overflow", func(t *testing.T) {
		prog, err := lang.Compile(overflowSrc())
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesTracker(t, prog, func() interp.Options {
			return interp.Options{
				Args:  []ir.Value{200},
				Input: &interp.SliceInput{Values: bench.InputValues(7, 97)},
			}
		}, "main")
	})
}

// callSrc is benchSrc's loop with a call per iteration, so the
// interpreter's activations are exercised too.
const callSrc = `
func step(s, t) {
	if (t < 50) { return s + 1; }
	return s + 2;
}
func main() {
	n = arg(0);
	i = 0;
	s = 0;
	while (i < n) {
		s = step(s, input() % 100);
		i = i + 1;
	}
	print(s);
}`

// TestTrainingAllocsIndependentOfRunLength holds a training run to a
// fixed number of allocations: a ten times longer run, which executes
// the same paths, must not allocate once more.
func TestTrainingAllocsIndependentOfRunLength(t *testing.T) {
	for name, src := range map[string]string{"benchSrc": benchSrc, "callSrc": callSrc} {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(n ir.Value) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, _, err := ProfileProgram(prog, interp.Options{Args: []ir.Value{n}}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(500), allocs(5000)
		if short != long {
			t.Errorf("%s: ProfileProgram allocates %v times at arg(0)=500 but %v at 5000", name, short, long)
		}
	}
}
