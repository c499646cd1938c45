package kernel_test

import (
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
)

func TestInterner(t *testing.T) {
	it := kernel.NewInterner[string]()
	if got := it.Lookup("a"); got != -1 {
		t.Fatalf("Lookup before Intern = %d, want -1", got)
	}
	if got := it.Intern("a"); got != 0 {
		t.Fatalf("first Intern = %d, want 0", got)
	}
	if got := it.Intern("b"); got != 1 {
		t.Fatalf("second Intern = %d, want 1", got)
	}
	if got := it.Intern("a"); got != 0 {
		t.Fatalf("re-Intern = %d, want stable 0", got)
	}
	if got := it.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := it.Key(1); got != "b" {
		t.Fatalf("Key(1) = %q, want %q", got, "b")
	}
	if got := it.Lookup("b"); got != 1 {
		t.Fatalf("Lookup = %d, want 1", got)
	}
}

func TestBitsOps(t *testing.T) {
	b := kernel.NewBits(130) // 3 words: exercises multi-word loops
	if b.Words != 3 {
		t.Fatalf("Words = %d, want 3", b.Words)
	}
	b.Grow(4)
	b.Set(0, 0)
	b.Set(0, 64)
	b.Set(0, 129)
	b.Set(1, 64)
	b.Set(1, 65)

	if changed := b.Or(2, 0); !changed {
		t.Error("Or into empty row reported no change")
	}
	if changed := b.Or(2, 0); changed {
		t.Error("idempotent Or reported change")
	}
	b.Copy(3, 0)
	if !b.Equal(3, 0) {
		t.Error("Copy then Equal = false")
	}
	if changed := b.And(3, 1); !changed {
		t.Error("And dropping bits reported no change")
	}
	// Row 3 should now be {64}: the only bit rows 0 and 1 share.
	want := kernel.NewBits(130)
	want.Grow(1)
	want.Set(0, 64)
	for i, w := range want.Row(0) {
		if b.Row(3)[i] != w {
			t.Fatalf("And word %d = %#x, want %#x", i, b.Row(3)[i], w)
		}
	}
	b.Unset(0, 64)
	b.AndNot(0, want.Row(0)) // already unset: no-op
	if got := b.Row(0)[1]; got != 0 {
		t.Errorf("Unset left word 1 = %#x", got)
	}
	b.Clear(0)
	for i, w := range b.Row(0) {
		if w != 0 {
			t.Errorf("Clear left word %d = %#x", i, w)
		}
	}
}

func TestKVArena(t *testing.T) {
	a := kernel.NewKV(3)
	a.Grow(3)
	a.Fill(0, 2)
	k, v := a.Row(0)
	for i := range k {
		if k[i] != 2 || v[i] != 0 {
			t.Fatalf("Fill cell %d = (%d, %d), want (2, 0)", i, k[i], v[i])
		}
	}
	k1, v1 := a.Row(1)
	k1[1], v1[1] = 1, 42
	a.Copy(2, 1)
	if !a.Equal(2, 1) {
		t.Error("Copy then Equal = false")
	}
	if a.Equal(0, 1) {
		t.Error("distinct rows compare equal")
	}
}

func TestSpanArena(t *testing.T) {
	a := kernel.NewSpan(2)
	a.Grow(2)
	lo, hi := a.Row(0)
	lo[0], hi[0] = -3, 7
	lo[1], hi[1] = 1, 0 // canonical empty: lo > hi
	a.Copy(1, 0)
	if !a.Equal(1, 0) {
		t.Error("Copy then Equal = false")
	}
	l1, _ := a.Row(1)
	l1[0] = 0
	if a.Equal(1, 0) {
		t.Error("modified row still compares equal")
	}
}

// --- solver equivalence on a custom domain -------------------------------

// reachProblem is a tiny boxed set problem: the fact is the uint64 mask
// of nodes the flow passed through; meet is union. Node gate (if valid)
// withholds its second slot, exercising edge executability. Works in
// both directions.
type reachProblem struct {
	backward bool
	gate     cfg.NodeID
}

func (p *reachProblem) Direction() dataflow.Direction {
	if p.backward {
		return dataflow.Backward
	}
	return dataflow.Forward
}
func (p *reachProblem) Entry() dataflow.Fact { return uint64(0) }
func (p *reachProblem) Meet(a, b dataflow.Fact) dataflow.Fact {
	return a.(uint64) | b.(uint64)
}
func (p *reachProblem) Equal(a, b dataflow.Fact) bool { return a.(uint64) == b.(uint64) }
func (p *reachProblem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	f := in.(uint64) | 1<<uint(n)
	for i := range out {
		if n == p.gate && i == 1 {
			continue // withheld: non-executable under this problem
		}
		out[i] = f
	}
}

// reachDomain is the packed mirror of reachProblem over a 1-word Bits
// arena.
type reachDomain struct {
	p    *reachProblem
	g    *cfg.Graph
	bits *kernel.Bits
}

func (d *reachDomain) Direction() dataflow.Direction { return d.p.Direction() }
func (d *reachDomain) Grow(rows int)                 { d.bits.Grow(rows) }
func (d *reachDomain) Boundary(dst int)              { d.bits.Clear(dst) }
func (d *reachDomain) Copy(dst, src int)             { d.bits.Copy(dst, src) }
func (d *reachDomain) Meet(dst, src int) bool        { return d.bits.Or(dst, src) }
func (d *reachDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.bits.Copy(scratch, in)
	d.bits.Set(scratch, int(n))
	for i := range slots {
		if n == d.p.gate && i == 1 {
			continue
		}
		slots[i] = 0
	}
}

// loopBranchGraph: entry -> h; h -> b | x; b -> h (retreating); x -> exit.
func loopBranchGraph(t *testing.T) (*cfg.Graph, cfg.NodeID) {
	t.Helper()
	g := cfg.New("loop")
	h := g.AddNode("h")
	b := g.AddNode("b")
	x := g.AddNode("x")
	g.Node(h).Kind = cfg.TermBranch
	g.Node(h).Cond = 0
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, b)
	g.AddEdge(h, x)
	g.AddEdge(b, h)
	g.AddEdge(x, g.Exit)
	if err := g.Validate(1); err != nil {
		t.Fatal(err)
	}
	return g, h
}

func TestSolverMatchesBoxedReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backward bool
		gated    bool
	}{
		{"forward", false, false},
		{"backward", true, false},
		{"forward-gated", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, h := loopBranchGraph(t)
			gate := cfg.NodeID(-1)
			if tc.gated {
				gate = h
			}
			p := &reachProblem{backward: tc.backward, gate: gate}
			want := dataflow.Solve(g, p)

			d := &reachDomain{p: p, g: g, bits: kernel.NewBits(g.NumNodes())}
			s := kernel.NewSolver(g, d)
			s.Run()
			got := s.Materialize(func(row int) dataflow.Fact {
				return d.bits.Row(row)[0]
			})

			if got.Iterations != want.Iterations {
				t.Errorf("Iterations = %d, want %d", got.Iterations, want.Iterations)
			}
			if got.Direction != want.Direction {
				t.Errorf("Direction = %v, want %v", got.Direction, want.Direction)
			}
			for n := range want.In {
				if got.Reached[n] != want.Reached[n] {
					t.Errorf("Reached[%d] = %v, want %v", n, got.Reached[n], want.Reached[n])
					continue
				}
				if !want.Reached[n] {
					continue
				}
				if got.In[n].(uint64) != want.In[n].(uint64) {
					t.Errorf("In[%d] = %#x, want %#x", n, got.In[n], want.In[n])
				}
			}
			for e := range want.EdgeExecutable {
				if got.EdgeExecutable[e] != want.EdgeExecutable[e] {
					t.Errorf("EdgeExecutable[%d] = %v, want %v", e, got.EdgeExecutable[e], want.EdgeExecutable[e])
				}
			}
		})
	}
}

// TestSolverRunAllocFree locks the tentpole's core claim at the solver
// layer: once built, re-solving allocates nothing.
func TestSolverRunAllocFree(t *testing.T) {
	g, _ := loopBranchGraph(t)
	p := &reachProblem{gate: -1}
	d := &reachDomain{p: p, g: g, bits: kernel.NewBits(g.NumNodes())}
	s := kernel.NewSolver(g, d)
	s.Run() // warm up
	if allocs := testing.AllocsPerRun(100, s.Run); allocs != 0 {
		t.Errorf("Solver.Run allocates %.1f objects/op, want 0", allocs)
	}
}
