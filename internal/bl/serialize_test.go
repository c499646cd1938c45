package bl_test

import (
	"bytes"
	"strings"
	"testing"

	. "pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
)

func exampleProgramProfile(t testing.TB) (*cfg.Program, *ProgramProfile) {
	t.Helper()
	f, _, edges := paperex.Build()
	prog := cfg.NewProgram()
	prog.Add(f)
	pp := NewProgramProfile()
	pp.Funcs["example"] = paperex.Profile(edges)
	return prog, pp
}

func TestSaveLoadRoundTrip(t *testing.T) {
	prog, pp := exampleProgramProfile(t)
	var buf bytes.Buffer
	if err := pp.Save(&buf, prog); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Funcs["example"].Equal(pp.Funcs["example"]) {
		t.Error("round trip changed the profile")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	prog, pp := exampleProgramProfile(t)
	var a, b bytes.Buffer
	if err := pp.Save(&a, prog); err != nil {
		t.Fatal(err)
	}
	if err := pp.Save(&b, prog); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serialization not deterministic")
	}
}

func TestLoadRejectsWrongProgram(t *testing.T) {
	prog, pp := exampleProgramProfile(t)
	var buf bytes.Buffer
	if err := pp.Save(&buf, prog); err != nil {
		t.Fatal(err)
	}
	other, err := lang.Compile(`func main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf, other)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("err = %v, want fingerprint mismatch", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	prog, _ := exampleProgramProfile(t)
	cases := []string{
		`not json`,
		`{"version": 99, "fingerprint": 0, "funcs": []}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c), prog); err == nil {
			t.Errorf("Load(%q) succeeded", c)
		}
	}
}

func TestLoadRejectsTamperedPaths(t *testing.T) {
	prog, pp := exampleProgramProfile(t)
	var buf bytes.Buffer
	if err := pp.Save(&buf, prog); err != nil {
		t.Fatal(err)
	}
	// Corrupt an edge id inside a path: the path no longer satisfies
	// Definition 7 and must be rejected.
	s := buf.String()
	s = strings.Replace(s, `"edges": [`, `"edges": [4, `, 1)
	if _, err := Load(strings.NewReader(s), prog); err == nil {
		t.Error("tampered profile accepted")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p1, err := lang.Compile(`func main() { x = 1; print(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := lang.Compile(`func main() { x = 2; print(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := lang.Compile(`func main() { x = 1; print(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(p1) == Fingerprint(p2) {
		t.Error("fingerprint ignores constants")
	}
	if Fingerprint(p1) != Fingerprint(p3) {
		t.Error("fingerprint not reproducible")
	}
}

func TestRoundTripFromRealRun(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	i = 0;
	while (i < 30) {
		if (i % 2 == 0) { i = i + 1; } else { i = i + 2; }
	}
	print(i);
}`)
	if err != nil {
		t.Fatal(err)
	}
	pp, _, err := ProfileProgram(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pp.Save(&buf, prog); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, prog)
	if err != nil {
		t.Fatal(err)
	}
	for name := range pp.Funcs {
		if !got.Funcs[name].Equal(pp.Funcs[name]) {
			t.Errorf("round trip changed %s", name)
		}
	}
}

// TestLoadRejectsOutOfRangeEdges: a saved path may name any edge ID;
// one outside the function's graph must be rejected, not indexed —
// whether it sits first, inside, or last in the path.
func TestLoadRejectsOutOfRangeEdges(t *testing.T) {
	prog, pp := exampleProgramProfile(t)
	var good Path
	for _, e := range pp.Funcs["example"].Entries {
		if len(e.Path.Edges) >= 2 {
			good = e.Path
			break
		}
	}
	if good.Len() == 0 {
		t.Fatal("example profile has no multi-edge path")
	}
	n := len(good.Edges)
	for _, tc := range []struct {
		name string
		at   int
		id   cfg.EdgeID
	}{
		{"first", 0, 99999},
		{"interior", 1, 99999},
		{"last", n - 1, 99999},
		{"negative", 1, -1},
	} {
		bad := Path{Edges: append([]cfg.EdgeID(nil), good.Edges...)}
		if tc.at == n-1 {
			bad.Edges = append(bad.Edges, tc.id)
		} else {
			bad.Edges = append(bad.Edges[:tc.at+1], bad.Edges[tc.at:]...)
			bad.Edges[tc.at] = tc.id
		}
		tampered := NewProgramProfile()
		orig := pp.Funcs["example"]
		tampered.Funcs["example"] = NewProfile(orig.FuncName, orig.R)
		tampered.Funcs["example"].Add(bad, 1)
		var buf bytes.Buffer
		if err := tampered.Save(&buf, prog); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf, prog)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: Load(%v) err = %v, want out-of-range rejection", tc.name, bad.Edges, err)
		}
	}
}
