package kernel_test

import (
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/lang"
	"pathflow/internal/liveness"
	"pathflow/internal/progen"
)

// TestSparseMatchesDenseFacts is the sparse solver's equivalence gate
// over generated programs, all three packed clients: facts,
// reachability, and edge executability must match the dense kernel
// pointwise (DifferentialFacts — transfer counts legitimately differ).
func TestSparseMatchesDenseFacts(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(seed)))
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			nv := fn.NumVars()

			cpD := constprop.AnalyzePacked(fn.G, nv, true)
			cpS := constprop.AnalyzeSparse(fn.G, nv, true)
			cpLat := &constprop.Problem{NumVars: nv, Conditional: true}
			if err := oracle.DifferentialFacts("constprop", name, cpLat, cpD.Sol, cpS.Sol).Err(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}

			guide := cpD.Sol
			lvD := liveness.AnalyzePacked(fn.G, nv, guide)
			lvS := liveness.AnalyzeSparse(fn.G, nv, guide)
			lvLat := &liveness.Problem{NumVars: nv, Guide: guide}
			if err := oracle.DifferentialFacts("liveness", name, lvLat, lvD.Sol, lvS.Sol).Err(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}

			u := availexpr.NewUniverse(fn.G, nv)
			aeD := availexpr.AnalyzePacked(fn.G, u, guide)
			aeS := availexpr.AnalyzeSparse(fn.G, u, guide)
			aeLat := &availexpr.Problem{U: u, Guide: guide}
			if err := oracle.DifferentialFacts("availexpr", name, aeLat, aeD.Sol, aeS.Sol).Err(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestSparseSpendsFewerTransfers pins the point of the sparse mode: on
// generated programs the sparse constprop solver never runs more
// transfers than the dense kernel, and across the corpus it runs
// strictly fewer in aggregate (pass-through pops skip transfers).
func TestSparseSpendsFewerTransfers(t *testing.T) {
	denseTotal, sparseTotal := 0, 0
	for seed := uint64(1); seed <= 25; seed++ {
		prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			nv := fn.NumVars()
			dense := constprop.PackedSolver(fn.G, nv, true)
			sparse := constprop.SparseSolver(fn.G, nv, true)
			dense.Run()
			sparse.Run()
			if sparse.Iterations > dense.Iterations {
				t.Errorf("seed %d func %s: sparse ran %d transfers, dense %d",
					seed, name, sparse.Iterations, dense.Iterations)
			}
			if sparse.Iterations > sparse.Pops {
				t.Errorf("seed %d func %s: transfers %d exceed pops %d",
					seed, name, sparse.Iterations, sparse.Pops)
			}
			denseTotal += dense.Iterations
			sparseTotal += sparse.Iterations
		}
	}
	if sparseTotal >= denseTotal {
		t.Errorf("sparse transfers (%d) not below dense (%d) across the corpus", sparseTotal, denseTotal)
	}
}

// TestSparseRunAllocFree extends the allocation gate to the sparse
// solver: chains and dirty sets are built once, so repeated Runs touch
// no heap.
func TestSparseRunAllocFree(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[prog.Order[0]]
	s := constprop.SparseSolver(fn.G, fn.NumVars(), true)
	s.Run() // warm
	if n := testing.AllocsPerRun(20, s.Run); n != 0 {
		t.Fatalf("sparse Run allocates %.1f times per call, want 0", n)
	}
}
