package main

import (
	"strings"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
)

// TestEditSourceKeepsProgramsRunnable walks a long chain of edits, as a
// serve-live client does: every version must differ from the previous
// one on exactly one line, leave loop lines alone, compile, and finish
// its training run.
func TestEditSourceKeepsProgramsRunnable(t *testing.T) {
	rng := splitmix64(0x5eed5eed)
	src, err := baseSource(&rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		next := editSource(src, &rng)
		a, b := strings.Split(src, "\n"), strings.Split(next, "\n")
		if len(a) != len(b) {
			t.Fatalf("edit %d changed the line count", i)
		}
		changed := 0
		for j := range a {
			if a[j] != b[j] {
				changed++
				if loopLine.MatchString(a[j]) {
					t.Fatalf("edit %d touched a loop line: %q -> %q", i, a[j], b[j])
				}
			}
		}
		if changed > 1 {
			t.Fatalf("edit %d changed %d lines", i, changed)
		}
		prog, err := lang.Compile(next)
		if err != nil {
			t.Fatalf("edit %d does not compile: %v\n%s", i, err, next)
		}
		io := interp.Options{Input: &interp.SliceInput{Values: bench.InputValues(1, 4096)}, MaxSteps: 1_000_000}
		if _, _, err := bl.ProfileProgram(prog, io); err != nil {
			t.Fatalf("edit %d: training run: %v\n%s", i, err, next)
		}
		src = next
	}
}
