// The external test package breaks the import cycle with paperex, which
// itself imports bl to build the paper's Figure 2 profile.
package bl_test

import (
	"strings"
	"testing"

	. "pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
)

func TestRecordingEdgesExample(t *testing.T) {
	_, _, edges := paperex.Build()
	f, _, _ := paperex.Build()
	R := RecordingEdges(f.G)
	want := paperex.Recording(edges)
	if len(R) != len(want) {
		t.Fatalf("recording edges = %d, want %d", len(R), len(want))
	}
	for e := range want {
		if !R[e] {
			t.Errorf("edge %d missing from recording set", e)
		}
	}
	if !AcyclicCheck(f.G, R) {
		t.Error("recording edges do not acyclicize the example")
	}
}

func TestPathsOfExampleValidate(t *testing.T) {
	f, _, edges := paperex.Build()
	R := paperex.Recording(edges)
	for i, p := range paperex.Paths(edges) {
		if err := p.Validate(f.G, R); err != nil {
			t.Errorf("path %d: %v", i+1, err)
		}
	}
}

func TestPathStringAndVertices(t *testing.T) {
	f, nodes, edges := paperex.Build()
	p := paperex.Paths(edges)[0]
	want := "[•,A,B,C,E,F,H,I,exit]"
	if got := p.String(f.G); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
	vs := p.Vertices(f.G)
	if vs[0] != nodes.A || vs[len(vs)-1] != nodes.Exit {
		t.Errorf("vertices = %v", vs)
	}
	if p.Start(f.G) != nodes.A || p.End(f.G) != nodes.Exit {
		t.Errorf("start/end = %d/%d", p.Start(f.G), p.End(f.G))
	}
}

func TestPathNumInstrs(t *testing.T) {
	f, _, edges := paperex.Build()
	ps := paperex.Paths(edges)
	// p1: A(2) B(1) C(1) E(1) F(1) H(4) I(1), Exit excluded = 11
	if got := ps[0].NumInstrs(f.G); got != 11 {
		t.Errorf("p1 instrs = %d, want 11", got)
	}
	// p3: B(1) D(1) E(1) G(1) H(4), final B excluded = 8
	if got := ps[2].NumInstrs(f.G); got != 8 {
		t.Errorf("p3 instrs = %d, want 8", got)
	}
}

func TestPathValidateErrors(t *testing.T) {
	f, _, edges := paperex.Build()
	R := paperex.Recording(edges)
	cases := []struct {
		name string
		p    Path
		want string
	}{
		{"empty", Path{}, "empty path"},
		{"no final recording", Path{Edges: []cfg.EdgeID{edges["A->B"], edges["B->C"]}}, "does not end"},
		{"interior recording", Path{Edges: []cfg.EdgeID{edges["H->B"], edges["B->D"], edges["D->E"], edges["E->G"], edges["G->H"], edges["H->B"]}}, "interior recording"},
		{"disconnected", Path{Edges: []cfg.EdgeID{edges["A->B"], edges["D->E"], edges["E->F"], edges["F->H"], edges["H->B"]}}, "disconnected"},
		{"bad start", Path{Edges: []cfg.EdgeID{edges["D->E"], edges["E->F"], edges["F->H"], edges["H->B"]}}, "not a recording-edge target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate(f.G, R)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// collectExampleProfile interprets the example under a Tracker, running
// each of the three run types the right number of times.
func collectExampleProfile(t *testing.T) (*cfg.Func, map[string]cfg.EdgeID, *Profile) {
	t.Helper()
	f, _, edges := paperex.Build()
	prog := cfg.NewProgram()
	prog.Add(f)
	tr := NewTracker(f, RecordingEdges(f.G))
	runOnce := func(kind int) {
		_, err := interp.Run(prog, interp.Options{
			Input:   &interp.SliceInput{Values: paperex.RunInputs(kind)},
			OnEnter: func(*cfg.Func) { tr.Enter() },
			OnEdge:  func(_ *cfg.Func, e cfg.EdgeID) { tr.Edge(e) },
			OnExit:  func(*cfg.Func) { tr.Exit() },
		})
		if err != nil {
			t.Fatalf("run kind %d: %v", kind, err)
		}
	}
	for i := 0; i < paperex.CountRun1; i++ {
		runOnce(1)
	}
	for i := 0; i < paperex.CountRun2; i++ {
		runOnce(2)
	}
	for i := 0; i < paperex.CountRun3; i++ {
		runOnce(3)
	}
	return f, edges, tr.Profile()
}

func TestTrackerReproducesFigure2(t *testing.T) {
	f, edges, got := collectExampleProfile(t)
	want := paperex.Profile(edges)
	if err := got.Validate(f.G); err != nil {
		t.Fatalf("tracked profile invalid: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("tracked profile differs from Figure 2:\ngot:\n%swant:\n%s",
			got.String(f.G), want.String(f.G))
	}
	if got.NumPaths() != 4 {
		t.Errorf("distinct paths = %d, want 4", got.NumPaths())
	}
}

// TestInstrumentedMatchesTracker profiles the example's runs through
// ProfileProgram, which numbers the example's paths, and sums them; the
// sum must be the Tracker's Figure 2 profile.
func TestInstrumentedMatchesTracker(t *testing.T) {
	f, _, want := collectExampleProfile(t)
	if _, err := NewNumbering(f.G, RecordingEdges(f.G)); err != nil {
		t.Fatalf("numbering the example: %v", err)
	}
	prog := cfg.NewProgram()
	prog.Add(f)
	got := NewProfile(f.Name, RecordingEdges(f.G))
	runOnce := func(kind, times int) {
		for i := 0; i < times; i++ {
			pp, _, err := ProfileProgram(prog, interp.Options{
				Input: &interp.SliceInput{Values: paperex.RunInputs(kind)},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range pp.Funcs[f.Name].Entries {
				got.Add(e.Path, e.Count)
			}
		}
	}
	runOnce(1, paperex.CountRun1)
	runOnce(2, paperex.CountRun2)
	runOnce(3, paperex.CountRun3)
	if !got.Equal(want) {
		t.Fatalf("instrumented profile differs from tracker:\ngot:\n%swant:\n%s",
			got.String(f.G), want.String(f.G))
	}
}

func TestNumberingRoundTrip(t *testing.T) {
	f, _, _ := paperex.Build()
	R := RecordingEdges(f.G)
	num, err := NewNumbering(f.G, R)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate every (start, id) pair and round-trip through PathID.
	starts := map[cfg.NodeID]bool{}
	for e := range R {
		starts[f.G.Edge(e).To] = true
	}
	paths := 0
	for s := range starts {
		for id := int64(0); id < num.TotalPaths(s); id++ {
			p, err := num.Regenerate(s, id)
			if err != nil {
				t.Fatalf("Regenerate(%d,%d): %v", s, id, err)
			}
			if err := p.Validate(f.G, R); err != nil {
				t.Fatalf("Regenerate(%d,%d) invalid: %v", s, id, err)
			}
			s2, id2, err := num.PathID(p)
			if err != nil {
				t.Fatalf("PathID: %v", err)
			}
			if s2 != s || id2 != id {
				t.Fatalf("round trip (%d,%d) -> (%d,%d)", s, id, s2, id2)
			}
			paths++
		}
	}
	if paths != 16 {
		t.Errorf("total enumerable paths = %d, want 16", paths)
	}
	if got := num.PotentialPaths(); got != 16 {
		t.Errorf("PotentialPaths = %d, want 16", got)
	}
}

func TestNumberingRejectsBadRecordingSet(t *testing.T) {
	f, _, edges := paperex.Build()
	R := paperex.Recording(edges)
	delete(R, edges["H->B"]) // leaves the loop intact: not acyclic
	if _, err := NewNumbering(f.G, R); err == nil {
		t.Fatal("NewNumbering accepted a non-acyclicizing recording set")
	}
}

func TestRegenerateRejectsBadIDs(t *testing.T) {
	f, nodes, _ := paperex.Build()
	num, err := NewNumbering(f.G, RecordingEdges(f.G))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := num.Regenerate(nodes.A, -1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := num.Regenerate(nodes.A, num.TotalPaths(nodes.A)); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestProfileProgramOnLangSource(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	i = 0;
	s = 0;
	while (i < 50) {
		if (i % 3 == 0) { s = s + 1; }
		else { s = s + 2; }
		i = i + 1;
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	pp, res, err := ProfileProgram(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := pp.Funcs["main"]
	g := prog.Main().G
	if err := pr.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Every dynamic instruction belongs to exactly one path traversal.
	if got := pr.DynInstrs(g); got != res.DynInstrs {
		t.Errorf("profile DynInstrs = %d, interpreter = %d", got, res.DynInstrs)
	}
	// 51 loop-head visits: 50 iterations end with the retreating edge,
	// plus the final run to exit and the run from entry.
	if pr.TotalCount() != 51 {
		t.Errorf("path traversals = %d, want 51", pr.TotalCount())
	}
}

const recursiveSrc = `
func fact(n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
func main() { print(fact(6)); }`

func TestProfileProgramRecursive(t *testing.T) {
	prog, err := lang.Compile(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	pp, res, err := ProfileProgram(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Funcs["fact"].G
	pr := pp.Funcs["fact"]
	if err := pr.Validate(g); err != nil {
		t.Fatal(err)
	}
	total := pp.Funcs["main"].DynInstrs(prog.Funcs["main"].G) + pr.DynInstrs(g)
	if total != res.DynInstrs {
		t.Errorf("profiles cover %d instrs, run executed %d", total, res.DynInstrs)
	}
	// fact has no loop, so each activation is one path from entry to
	// exit; 6 activations.
	if pr.TotalCount() != 6 {
		t.Errorf("fact path traversals = %d, want 6", pr.TotalCount())
	}
}

func TestSortedEntriesOrder(t *testing.T) {
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	es := pr.SortedEntries(f.G)
	for i := 1; i < len(es); i++ {
		wi := es[i-1].Count * int64(es[i-1].Path.NumInstrs(f.G))
		wj := es[i].Count * int64(es[i].Path.NumInstrs(f.G))
		if wi < wj {
			t.Fatalf("entries out of order at %d: %d < %d", i, wi, wj)
		}
	}
	// p3 has weight 100*8=800, p1 70*11=770, p2 30*9, p4 30*10.
	if es[0].Count != 100 {
		t.Errorf("hottest path count = %d, want 100 (p3)", es[0].Count)
	}
}

func TestTrimmed(t *testing.T) {
	_, _, edges := paperex.Build()
	p := paperex.Paths(edges)[0]
	tr := p.Trimmed()
	if tr.Len() != p.Len()-1 {
		t.Errorf("trimmed len = %d, want %d", tr.Len(), p.Len()-1)
	}
	if (Path{}).Trimmed().Len() != 0 {
		t.Error("trimming the empty path should be empty")
	}
}
