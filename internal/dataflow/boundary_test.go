package dataflow_test

// Boundary tests for the solver's widening/narrowing knobs, on both
// solvers:
//
//   - WidenThreshold: a fact at a widen point may change exactly
//     WidenThreshold times without triggering Widen; the switch happens
//     on change WidenThreshold+1. Both sides of the boundary are locked.
//   - NarrowingPasses: after widening overshoots a loop fact to a
//     sentinel, the decreasing re-iterations must recover the bound the
//     loop-exit refinement actually implies.

import (
	"testing"

	"pathflow/internal/cfg"
	. "pathflow/internal/dataflow"
)

// loopGraph: entry -> h; h -> b (slot 0) and h -> x (slot 1); b -> h
// (the retreating edge); x -> exit. h is the forward widen point (target
// of the retreating edge); b is the backward one (its source).
func loopGraph(t *testing.T) (g *cfg.Graph, h, b, x cfg.NodeID) {
	t.Helper()
	g = cfg.New("loop")
	h = g.AddNode("h")
	b = g.AddNode("b")
	x = g.AddNode("x")
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
	return g, h, b, x
}

// cappedLoop is a max-lattice problem over ints modelling a counting
// loop `for i := 0; i < refine+1; i++`: the body transfer increments
// (saturating at cap), the head's back-to-body edge refines to at most
// refine, and Widen jumps to the counterInf sentinel. cap controls how
// many times the widen point's fact changes before natural convergence.
type cappedLoop struct {
	h, b       cfg.NodeID
	cap        int
	refine     int
	backward   bool
	widenCalls int
}

func (p *cappedLoop) Direction() Direction {
	if p.backward {
		return Backward
	}
	return Forward
}
func (p *cappedLoop) Entry() Fact { return 0 }
func (p *cappedLoop) Meet(a, b Fact) Fact {
	if a.(int) > b.(int) {
		return a
	}
	return b
}
func (p *cappedLoop) Equal(a, b Fact) bool { return a.(int) == b.(int) }
func (p *cappedLoop) Widen(old, new Fact) Fact {
	p.widenCalls++
	return counterInf
}

func (p *cappedLoop) inc(v int) int {
	if v >= p.cap {
		return p.cap
	}
	return v + 1
}
func (p *cappedLoop) ref(v int) int {
	if v > p.refine {
		return p.refine
	}
	return v
}

func (p *cappedLoop) Transfer(g *cfg.Graph, n cfg.NodeID, in Fact, out []Fact) {
	v := in.(int)
	if !p.backward {
		switch n {
		case p.h:
			out[0] = p.ref(v) // h -> b: loop-entry refinement
			out[1] = v        // h -> x
		case p.b:
			out[0] = p.inc(v) // b -> h: the increment
		default:
			for i := range out {
				out[i] = v
			}
		}
		return
	}
	// Backward: slots follow n's In list; pick semantics per source.
	nd := g.Node(n)
	for i, eid := range nd.In {
		switch {
		case n == p.h && g.Edge(eid).From == p.b:
			out[i] = p.inc(v) // delivered to the latch b
		case n == p.b:
			out[i] = p.ref(v) // delivered to h: refinement
		default:
			out[i] = v
		}
	}
}

var _ Widener = (*cappedLoop)(nil)

func TestWidenThresholdBoundaryForward(t *testing.T) {
	// cap = WidenThreshold: the head's fact changes exactly
	// WidenThreshold times (1..cap) and converges without widening.
	g, h, b, x := loopGraph(t)
	p := &cappedLoop{h: h, b: b, cap: WidenThreshold, refine: 100}
	sol := Solve(g, p)
	if p.widenCalls != 0 {
		t.Errorf("Widen called %d times at exactly-threshold changes, want 0", p.widenCalls)
	}
	if got := sol.In[h].(int); got != WidenThreshold {
		t.Errorf("In[h] = %d, want exact %d", got, WidenThreshold)
	}

	// cap = WidenThreshold+1: one more change crosses the boundary and
	// must switch to Widen.
	g, h, b, x = loopGraph(t)
	_ = x
	p = &cappedLoop{h: h, b: b, cap: WidenThreshold + 1, refine: 100}
	sol = Solve(g, p)
	if p.widenCalls == 0 {
		t.Error("Widen never called one change past the threshold")
	}
	// Narrowing then recovers the capped value from the sentinel.
	if got := sol.In[h].(int); got != WidenThreshold+1 {
		t.Errorf("In[h] = %d, want narrowed %d", got, WidenThreshold+1)
	}
}

func TestWidenThresholdBoundaryBackward(t *testing.T) {
	// Backward, the widen point is the latch b; its first fact arrives
	// at 1, so cap = WidenThreshold+1 yields exactly WidenThreshold
	// changes (2..cap) — still no widening.
	g, h, b, _ := loopGraph(t)
	p := &cappedLoop{h: h, b: b, cap: WidenThreshold + 1, refine: 100, backward: true}
	sol := Solve(g, p)
	if p.widenCalls != 0 {
		t.Errorf("Widen called %d times at exactly-threshold changes, want 0", p.widenCalls)
	}
	if got := sol.In[b].(int); got != WidenThreshold+1 {
		t.Errorf("In[b] = %d, want exact %d", got, WidenThreshold+1)
	}

	g, h, b, _ = loopGraph(t)
	p = &cappedLoop{h: h, b: b, cap: WidenThreshold + 2, refine: 100, backward: true}
	sol = Solve(g, p)
	if p.widenCalls == 0 {
		t.Error("Widen never called one change past the threshold")
	}
	if got := sol.In[b].(int); got != WidenThreshold+2 {
		t.Errorf("In[b] = %d, want narrowed %d", got, WidenThreshold+2)
	}
}

func TestNarrowingRecoversLoopExitBoundForward(t *testing.T) {
	// Effectively unbounded increment (cap huge) forces widening to the
	// sentinel; the h -> b refinement to <= 9 then implies the head can
	// only ever see 9+1 = 10, which the narrowing passes must recover.
	g, h, b, x := loopGraph(t)
	p := &cappedLoop{h: h, b: b, cap: 1000, refine: 9}
	sol := Solve(g, p)
	if p.widenCalls == 0 {
		t.Fatal("widening never triggered; test is not exercising narrowing")
	}
	if got := sol.In[h].(int); got != 10 {
		t.Errorf("In[h] = %d, want loop-exit bound 10", got)
	}
	if got := sol.In[b].(int); got != 9 {
		t.Errorf("In[b] = %d, want refined 9", got)
	}
	if got := sol.In[x].(int); got != 10 {
		t.Errorf("In[x] = %d, want 10", got)
	}
	if got := sol.In[g.Exit].(int); got != 10 {
		t.Errorf("In[exit] = %d, want 10", got)
	}
}

func TestNarrowingRecoversLoopExitBoundBackward(t *testing.T) {
	g, h, b, _ := loopGraph(t)
	p := &cappedLoop{h: h, b: b, cap: 1000, refine: 9, backward: true}
	sol := Solve(g, p)
	if p.widenCalls == 0 {
		t.Fatal("widening never triggered; test is not exercising narrowing")
	}
	if got := sol.In[b].(int); got != 10 {
		t.Errorf("In[b] = %d, want loop-exit bound 10", got)
	}
	if got := sol.In[h].(int); got != 9 {
		t.Errorf("In[h] = %d, want refined 9", got)
	}
}
