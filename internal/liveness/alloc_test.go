package liveness

import (
	"testing"

	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// TestPackedRunAllocFree extends the kernels' steady-state allocation
// gate to the backward direction: once built, both the dense and the
// sparse solver re-solve guided liveness (reverse-RPO priority ring,
// facts flowing exit → entry) without touching the heap.
func TestPackedRunAllocFree(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	// The largest function has loops, so retreating edges re-queue nodes.
	fn := prog.Funcs[prog.Order[0]]
	for _, name := range prog.Order {
		if g := prog.Funcs[name].G; g.NumNodes() > fn.G.NumNodes() {
			fn = prog.Funcs[name]
		}
	}
	if len(fn.G.DepthFirst().Retreating) == 0 {
		t.Fatalf("func %s has no loop; pick a seed that generates one", fn.Name)
	}
	nv := fn.NumVars()
	guide := constprop.AnalyzePacked(fn.G, nv, true).Sol
	for _, tc := range []struct {
		name  string
		build func(*packedDomain) *kernel.Solver
	}{
		{"dense", func(d *packedDomain) *kernel.Solver { return kernel.NewSolver(fn.G, d) }},
		{"sparse", func(d *packedDomain) *kernel.Solver { return kernel.NewSparseSolver(fn.G, d) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(newPackedDomain(fn.G, nv, guide))
			s.Run() // warm
			if n := testing.AllocsPerRun(20, s.Run); n != 0 {
				t.Errorf("backward %s Run allocates %.1f times per call, want 0", tc.name, n)
			}
		})
	}
}
