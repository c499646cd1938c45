package progen_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/opt"
	. "pathflow/internal/progen"
)

const numRandomPrograms = 60

func inputFor(seed int64) *interp.SliceInput {
	vals := make([]ir.Value, 64)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0xffff)
	}
	return &interp.SliceInput{Values: vals}
}

func compileRandom(t *testing.T, seed uint64) *cfg.Program {
	t.Helper()
	src := Generate(DefaultConfig(seed))
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("seed %d: compile failed: %v\nsource:\n%s", seed, err, src)
	}
	return prog
}

func runProg(t *testing.T, prog *cfg.Program, seed uint64) *interp.Result {
	t.Helper()
	res, err := interp.Run(prog, interp.Options{
		Args:          []ir.Value{3, 7, 11},
		Input:         inputFor(int64(seed)),
		CollectOutput: true,
		MaxSteps:      2_000_000,
	})
	if err != nil {
		t.Fatalf("seed %d: run failed: %v", seed, err)
	}
	return res
}

// TestRandomProgramsCompileAndTerminate is the generator's basic
// guarantee.
func TestRandomProgramsCompileAndTerminate(t *testing.T) {
	for seed := uint64(1); seed <= numRandomPrograms; seed++ {
		prog := compileRandom(t, seed)
		runProg(t, prog, seed)
	}
}

// TestProfilersAgreeOnRandomPrograms cross-checks ProfileProgram's
// numbered path counts against the Tracker reference on every function
// of every random program.
func TestProfilersAgreeOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= numRandomPrograms; seed++ {
		checkProfilersAgree(t, seed, []ir.Value{3, 7, 11}, int64(seed))
	}
}

// TestPipelinePreservesSemantics is the system's central differential
// property: for random programs, the HPG, the rHPG and the folded
// (optimized) program all behave exactly like the original.
func TestPipelinePreservesSemantics(t *testing.T) {
	for seed := uint64(1); seed <= numRandomPrograms; seed++ {
		prog := compileRandom(t, seed)
		want := runProg(t, prog, seed)

		train, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    inputFor(int64(seed)),
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		for _, ca := range []float64{0.5, 1.0} {
			res, err := engine.Serial().AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: ca, CR: 0.95})
			if err != nil {
				t.Fatalf("seed %d ca=%v: analyze: %v", seed, ca, err)
			}
			// rHPG equivalence.
			finalProg := cfg.NewProgram()
			for _, name := range prog.Order {
				finalProg.Add(res.Funcs[name].FinalFunc())
			}
			got := runProg(t, finalProg, seed)
			if !reflect.DeepEqual(got.Output, want.Output) || got.Ret != want.Ret {
				t.Fatalf("seed %d ca=%v: rHPG diverged\nwant %v\ngot  %v", seed, ca, want.Output, got.Output)
			}
			if got.DynInstrs != want.DynInstrs {
				t.Fatalf("seed %d ca=%v: rHPG executed %d instrs, want %d",
					seed, ca, got.DynInstrs, want.DynInstrs)
			}
			// HPG equivalence (where tracing ran).
			hpgProg := cfg.NewProgram()
			for _, name := range prog.Order {
				fr := res.Funcs[name]
				if fr.Qualified() {
					hpgProg.Add(fr.HPG.Func())
				} else {
					hpgProg.Add(fr.Fn)
				}
			}
			got = runProg(t, hpgProg, seed)
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Fatalf("seed %d ca=%v: HPG diverged", seed, ca)
			}
			// Folded program equivalence — with every optimizer pass
			// enabled, so interval folds and dead-store deletion get
			// differential soundness coverage on random programs too.
			optProg, _ := res.OptimizedProgram(opt.PassesAll)
			got = runProg(t, optProg, seed)
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Fatalf("seed %d ca=%v: optimized program diverged\nwant %v\ngot  %v",
					seed, ca, want.Output, got.Output)
			}
		}
		// Baseline (all passes on the original graphs) equivalence.
		baseProg, _ := engine.BaselineProgram(prog, opt.PassesAll)
		got := runProg(t, baseProg, seed)
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("seed %d: baseline-folded program diverged", seed)
		}
	}
}

// TestConstPropSoundOnRandomPrograms checks every Wegman-Zadek claim
// against actual execution: if the solution says register v holds
// constant k at node n's entry, every dynamic entry to n must observe k.
func TestConstPropSoundOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= numRandomPrograms; seed++ {
		prog := compileRandom(t, seed)
		sols := map[string]*constprop.Result{}
		for name, fn := range prog.Funcs {
			sols[name] = constprop.Analyze(fn.G, fn.NumVars(), true)
		}
		var violation error
		_, err := interp.Run(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    inputFor(int64(seed)),
			MaxSteps: 2_000_000,
			OnBlockEnv: func(fn *cfg.Func, n cfg.NodeID, regs []ir.Value) {
				if violation != nil {
					return
				}
				sol := sols[fn.Name]
				if !sol.Reached(n) {
					violation = fmt.Errorf("%s: node %d executed but analysis says unreachable", fn.Name, n)
					return
				}
				env := sol.EnvAt(n)
				for v, val := range env {
					if val.Kind == constprop.Const && regs[v] != val.K {
						violation = fmt.Errorf("%s node %d: analysis says v%d=%d, execution has %d",
							fn.Name, n, v, val.K, regs[v])
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violation != nil {
			t.Fatalf("seed %d: unsound constant propagation: %v", seed, violation)
		}
	}
}

// TestQualifiedConstPropSoundOnHPG repeats the soundness check on the
// traced graph, where the qualified analysis makes sharper claims.
func TestQualifiedConstPropSoundOnHPG(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		prog := compileRandom(t, seed)
		train, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    inputFor(int64(seed)),
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := engine.Serial().AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: 1.0, CR: 0.95})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		finalProg := cfg.NewProgram()
		sols := map[string]*constprop.Result{}
		for _, name := range prog.Order {
			fr := res.Funcs[name]
			finalProg.Add(fr.FinalFunc())
			sols[name] = fr.FinalSol()
		}
		var violation error
		_, err = interp.Run(finalProg, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    inputFor(int64(seed)),
			MaxSteps: 2_000_000,
			OnBlockEnv: func(fn *cfg.Func, n cfg.NodeID, regs []ir.Value) {
				if violation != nil {
					return
				}
				env := sols[fn.Name].EnvAt(n)
				for v, val := range env {
					if val.Kind == constprop.Const && regs[v] != val.K {
						violation = fmt.Errorf("%s node %d: qualified analysis says v%d=%d, execution has %d",
							fn.Name, n, v, val.K, regs[v])
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violation != nil {
			t.Fatalf("seed %d: unsound qualified analysis: %v", seed, violation)
		}
	}
}

// TestGeneratorDeterministic: same seed, same program.
func TestGeneratorDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultConfig(seed % 1000)
		return Generate(cfg) == Generate(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestGeneratorSeedsDiffer: different seeds produce different programs
// (almost always — the property is checked on a fixed pair).
func TestGeneratorSeedsDiffer(t *testing.T) {
	if Generate(DefaultConfig(1)) == Generate(DefaultConfig(2)) {
		t.Error("seeds 1 and 2 generated identical programs")
	}
}
