package engine_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBundleNamesGolden pins the name of every disk bundle a cold run
// writes over the whole suite. A bundle's name spells out its kind and
// the (slice, chain, knob) words of its stage key, so the sorted list
// pins every stage-key digest: a change that moves any key — or the
// kind a stage is stored under — fails here, and a cache directory
// written before the change would no longer serve it warm. The run
// covers every pipeline stage at CA .97 / CR .95 with all clients on,
// plus feasibility on the two benchmarks whose masks are non-empty.
// Run with -update to rewrite.
func TestBundleNamesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	dir := t.TempDir()
	eng, err := engine.Open(engine.Config{CacheDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll}
	feasible := map[string]bool{"ijpeg": true, "m88ksim": true}
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := bl.ProfileProgram(prog, b.TrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AnalyzeProgram(ctx, prog, train, o); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if feasible[b.Name] {
			fo := o
			fo.Feasible = true
			if _, err := eng.AnalyzeProgram(ctx, prog, train, fo); err != nil {
				t.Fatalf("%s -feasible: %v", b.Name, err)
			}
		}
	}

	var names []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".pfac") {
			names = append(names, d.Name())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "bundles.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("bundle names differ from %s (%d now, %d pinned); first difference:\n%s",
			golden, len(names), strings.Count(string(want), "\n"), firstDiff(got, string(want)))
	}
}

// firstDiff returns the first differing line pair of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "  got:  " + gl + "\n  want: " + wl
		}
	}
	return ""
}
