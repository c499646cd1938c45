package engine_test

import (
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/lang"
	"pathflow/internal/liveness"
	"pathflow/internal/progen"
)

// FuzzKernelEquivalence is the representation-change falsifier: for
// arbitrary generated programs, the full pipeline run on the packed
// arena kernels must be pointwise identical to the boxed reference run
// — every graph tier (CFG, HPG, reduced HPG), every client (constant
// propagation, liveness, available expressions), facts,
// reachability, edge executability, and iteration counts. The sparse
// def-use kernel joins the cross-product on facts-only terms
// (DifferentialFacts): its schedule legitimately runs fewer transfers,
// but every fact, reachable node, and executable edge must still match
// the boxed reference pointwise. All engines run cache-less so every
// solution is freshly computed by its own backend.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(5))
	f.Add(uint64(2), uint64(3))
	f.Add(uint64(7), uint64(9))
	f.Add(uint64(19), uint64(1))
	f.Add(uint64(42), uint64(17))
	// Structure-targeted seeds: 301 generates the longest straight-line
	// chain in the first 400 seeds (graph diameter 48 — stresses sparse
	// pass-through forwarding), 138 the most branch nodes (118 — deep
	// nested diamonds stress first-delivery masking at merge points).
	f.Add(uint64(301), uint64(11))
	f.Add(uint64(138), uint64(5))

	f.Fuzz(func(t *testing.T, seed, inputSeed uint64) {
		src := progen.Generate(progen.DefaultConfig(seed))
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		train, err := fuzzProfile(prog, inputSeed)
		if err != nil {
			t.Skip("training run did not terminate in budget")
		}

		run := func(k dataflow.Kernel) *engine.ProgramResult {
			o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll, Kernel: k}
			res, err := engine.New(engine.Config{Workers: 1}).AnalyzeProgram(ctx, prog, train, o)
			if err != nil {
				t.Fatalf("%s analysis failed: %v", k, err)
			}
			return res
		}
		boxed := run(dataflow.KernelBoxed)
		packed := run(dataflow.KernelPacked)
		sparse := run(dataflow.KernelSparse)

		if a, b := summarize(boxed), summarize(packed); a != b {
			t.Fatalf("packed summary differs from boxed\nboxed:\n%s\npacked:\n%s", a, b)
		}
		if a, b := summarize(boxed), summarize(sparse); a != b {
			t.Fatalf("sparse summary differs from boxed\nboxed:\n%s\nsparse:\n%s", a, b)
		}

		check := func(fn, client, tier string, lat oracle.Lattice, b, p *dataflow.Solution) {
			t.Helper()
			if (b == nil) != (p == nil) {
				t.Fatalf("%s/%s/%s: solution presence differs (boxed %v, packed %v)", fn, client, tier, b != nil, p != nil)
			}
			if b == nil {
				return
			}
			if err := oracle.Differential(client, tier, lat, b, p).Err(); err != nil {
				t.Errorf("func %s tier %s: %v", fn, tier, err)
			}
		}
		// Facts-only variant for the sparse kernel: iteration counts are
		// expected to differ (that is the optimization), so compare
		// facts, reachability, and edge executability only.
		checkFacts := func(fn, client, tier string, lat oracle.Lattice, b, s *dataflow.Solution) {
			t.Helper()
			if (b == nil) != (s == nil) {
				t.Fatalf("%s/%s/%s: solution presence differs (boxed %v, sparse %v)", fn, client, tier, b != nil, s != nil)
			}
			if b == nil {
				return
			}
			if err := oracle.DifferentialFacts(client, tier, lat, b, s).Err(); err != nil {
				t.Errorf("func %s tier %s (sparse): %v", fn, tier, err)
			}
		}
		for _, name := range prog.Order {
			bfr, pfr, sfr := boxed.Funcs[name], packed.Funcs[name], sparse.Funcs[name]
			nv := prog.Funcs[name].NumVars()
			if bfr.Qualified() != pfr.Qualified() || bfr.Qualified() != sfr.Qualified() {
				t.Fatalf("func %s: qualification differs between kernels", name)
			}

			cpLat := &constprop.Problem{NumVars: nv, Conditional: true}
			lvLat := &liveness.Problem{NumVars: nv}
			aeLat := &availexpr.Problem{U: bfr.AvailU}

			tiers := []string{"cfg"}
			if bfr.Qualified() {
				tiers = append(tiers, "hpg", "rhpg")
			}

			cpSols := [][3]*constprop.Result{{bfr.OrigSol, pfr.OrigSol, sfr.OrigSol}, {bfr.HPGSol, pfr.HPGSol, sfr.HPGSol}, {bfr.RedSol, pfr.RedSol, sfr.RedSol}}
			lvSols := [][3]*liveness.Result{{bfr.LiveCFG, pfr.LiveCFG, sfr.LiveCFG}, {bfr.LiveHPG, pfr.LiveHPG, sfr.LiveHPG}, {bfr.LiveRed, pfr.LiveRed, sfr.LiveRed}}
			aeSols := [][3]*availexpr.Result{{bfr.AvailCFG, pfr.AvailCFG, sfr.AvailCFG}, {bfr.AvailHPG, pfr.AvailHPG, sfr.AvailHPG}, {bfr.AvailRed, pfr.AvailRed, sfr.AvailRed}}
			for i, tr := range tiers {
				if b, p := cpSols[i][0], cpSols[i][1]; b != nil || p != nil {
					check(name, "constprop", tr, cpLat, solOf(b), solOf(p))
					checkFacts(name, "constprop", tr, cpLat, solOf(b), solOf(cpSols[i][2]))
				}
				if b, p := lvSols[i][0], lvSols[i][1]; b != nil || p != nil {
					check(name, "liveness", tr, lvLat, lvSolOf(b), lvSolOf(p))
					checkFacts(name, "liveness", tr, lvLat, lvSolOf(b), lvSolOf(lvSols[i][2]))
				}
				if b, p := aeSols[i][0], aeSols[i][1]; b != nil || p != nil {
					check(name, "availexpr", tr, aeLat, aeSolOf(b), aeSolOf(p))
					checkFacts(name, "availexpr", tr, aeLat, aeSolOf(b), aeSolOf(aeSols[i][2]))
				}
			}
		}
	})
}

func solOf(r *constprop.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Sol
}

func lvSolOf(r *liveness.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Sol
}

func aeSolOf(r *availexpr.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Sol
}
