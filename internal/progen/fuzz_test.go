package progen_test

import (
	"errors"
	"math/big"
	"reflect"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
)

// FuzzProfileProgram runs random programs on fuzzer-chosen args and
// input streams. ProfileProgram, which counts numbered paths, must
// return exactly the profiles of the Tracker reference — the same
// paths, counts and recording edges — and every path must satisfy
// Definition 7. Seeds: the checked-in corpus under testdata/fuzz.
func FuzzProfileProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, a0, a1, a2, inputSeed int64) {
		checkProfilersAgree(t, seed, []ir.Value{a0, a1, a2}, inputSeed)
	})
}

// checkProfilersAgree profiles the random program of seed on args and
// the input stream of inputSeed twice, through ProfileProgram and through
// the Tracker reference. A function must be numbered, so that
// ProfileProgram counts its path ids rather than falling back to a
// Tracker, whenever an independent count of its paths fits the
// numbering; it must overflow when the count exceeds int64. The profiles
// must be equal — the same paths, counts and recording edges — every
// path must satisfy Definition 7, and the profiles must cover exactly the
// run's dynamic instructions.
func checkProfilersAgree(t *testing.T, seed uint64, args []ir.Value, inputSeed int64) {
	t.Helper()
	prog := compileRandom(t, seed)
	for name, fn := range prog.Funcs {
		R := bl.RecordingEdges(fn.G)
		_, err := bl.NewNumbering(fn.G, R)
		switch n := maxPathCount(fn.G, R); {
		case err != nil && !errors.Is(err, bl.ErrTooManyPaths):
			t.Fatalf("seed %d: numbering %s: %v", seed, name, err)
		case err != nil && n.BitLen() <= 61:
			t.Fatalf("seed %d: numbering %s with at most %v paths per vertex: %v", seed, name, n, err)
		case err == nil && n.BitLen() > 63:
			t.Fatalf("seed %d: numbered %s although a vertex starts %v paths", seed, name, n)
		}
	}
	opts := func() interp.Options {
		return interp.Options{Args: args, Input: inputFor(inputSeed), MaxSteps: 2_000_000}
	}
	got, res, err := bl.ProfileProgram(prog, opts())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	want, _, err := bl.TrackProgram(prog, opts())
	if err != nil {
		t.Fatalf("seed %d: reference: %v", seed, err)
	}
	var dyn int64
	for name, fn := range prog.Funcs {
		if !reflect.DeepEqual(got.Funcs[name], want.Funcs[name]) {
			t.Fatalf("seed %d: %s: profile differs from the tracker's\ngot:\n%swant:\n%s",
				seed, name, got.Funcs[name].String(fn.G), want.Funcs[name].String(fn.G))
		}
		if err := got.Funcs[name].Validate(fn.G); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dyn += got.Funcs[name].DynInstrs(fn.G)
	}
	if dyn != res.DynInstrs {
		t.Fatalf("seed %d: profiles cover %d dynamic instructions, the run executed %d", seed, dyn, res.DynInstrs)
	}
}

// maxPathCount counts the Ball-Larus paths that start at each reachable
// vertex of g under R, without the numbering's int64 arithmetic, and
// returns the largest count.
func maxPathCount(g *cfg.Graph, R map[cfg.EdgeID]bool) *big.Int {
	dfs := g.DepthFirst()
	memo := make([]*big.Int, g.NumNodes())
	var count func(v cfg.NodeID) *big.Int
	count = func(v cfg.NodeID) *big.Int {
		if memo[v] == nil {
			n := new(big.Int)
			for _, eid := range g.Node(v).Out {
				if R[eid] {
					n.Add(n, big.NewInt(1))
				} else {
					n.Add(n, count(g.Edge(eid).To))
				}
			}
			memo[v] = n
		}
		return memo[v]
	}
	largest := new(big.Int)
	for _, nd := range g.Nodes {
		if dfs.Reachable(nd.ID) && count(nd.ID).Cmp(largest) > 0 {
			largest = count(nd.ID)
		}
	}
	return largest
}
