package bl_test

import (
	"testing"

	"pathflow/internal/bench"
	. "pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
)

// benchProgram is a moderately branchy loop used by the micro-benchmarks.
const benchSrc = `
func main() {
	n = arg(0);
	i = 0;
	s = 0;
	while (i < n) {
		t = input() % 100;
		if (t < 50) { s = s + 1; } else { s = s + 2; }
		if (t % 3 == 0) { s = s ^ 7; }
		if (t % 7 == 0) { s = s * 3 % 1009; }
		i = i + 1;
	}
	print(s);
}`

func BenchmarkNumberingConstruction(b *testing.B) {
	f, _, _ := paperex.Build()
	R := RecordingEdges(f.G)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewNumbering(f.G, R); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegenerate(b *testing.B) {
	f, _, _ := paperex.Build()
	num, err := NewNumbering(f.G, RecordingEdges(f.G))
	if err != nil {
		b.Fatal(err)
	}
	starts := []cfg.NodeID{}
	for e := range num.R {
		starts = append(starts, f.G.Edge(e).To)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := starts[i%len(starts)]
		if num.TotalPaths(s) == 0 {
			continue
		}
		if _, err := num.Regenerate(s, int64(i)%num.TotalPaths(s)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackerProfiling times the Tracker reference on benchSrc.
func BenchmarkTrackerProfiling(b *testing.B) {
	prog, err := lang.Compile(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	opts := interp.Options{Args: []int64{500}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrackProgram(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileProgram is one training run per suite program: the
// interpreter with path counting attached, as every analysis pays it.
func BenchmarkProfileProgram(b *testing.B) {
	for _, bm := range bench.All() {
		prog, err := bm.Program()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ProfileProgram(prog, bm.TrainOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
