package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadRuns reads every result file under dir.
func loadRuns(dir string) ([]runFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []runFile
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Seed < out[j].Seed
	})
	return out, nil
}

// byWorkload groups runs of one trace mode by workload.
func byWorkload(runs []runFile, traced bool) map[string][]runFile {
	out := map[string][]runFile{}
	for _, r := range runs {
		if r.Trace == traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// paired returns metric values of a and b, pairing runs with equal
// seeds when the two sets share seeds and by position otherwise.
func paired(a, b []runFile, name string) (va, vb []float64) {
	seeds := map[uint64]int{}
	for i, r := range b {
		seeds[r.Seed] = i
	}
	shared := 0
	for _, r := range a {
		if _, ok := seeds[r.Seed]; ok {
			shared++
		}
	}
	if shared > 0 {
		for _, r := range a {
			if i, ok := seeds[r.Seed]; ok {
				va = append(va, r.Result.Metrics[name].Value)
				vb = append(vb, b[i].Result.Metrics[name].Value)
			}
		}
		return va, vb
	}
	for _, r := range a {
		va = append(va, r.Result.Metrics[name].Value)
	}
	for _, r := range b {
		vb = append(vb, r.Result.Metrics[name].Value)
	}
	return va, vb
}

// cmdCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the pair wins and the verdict under the bounds
// in BENCHMARK.json. DIR_A holds the parent's untraced runs, DIR_B the
// change's.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ra, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rb, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	wa, wb := byWorkload(ra, false), byWorkload(rb, false)
	workloads := make([]string, 0, len(wa))
	for w := range wa {
		if _, ok := wb[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Printf("%-15s %-15s %24s %24s %7s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "spread", "verdict")
	for _, w := range workloads {
		for _, side := range [][]runFile{wa[w], wb[w]} {
			for _, r := range side {
				if r.Result.Failed > 0 || !r.Result.Correct {
					fmt.Printf("%-15s seed %d: %d of %d operations failed\n", w, r.Seed, r.Result.Failed, r.Result.Attempted)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := paired(wa[w], wb[w], m.Name)
			c := compareRuns(va, vb, m.Better == "higher", m.Bound)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Printf("%-15s %-15s %24s %24s %3d/%-3d %6.3f  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedA, a1, a3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedB, b1, b3),
				c.Wins, c.Pairs, c.SpreadA, c.Verdict)
		}
	}
	return 0
}

// shareLayers is the share report's layer order: a job's steps in the
// order they run.
var shareLayers = []string{
	"lang", "interp", "bl", "feasible", "constprop", "liveness", "availexpr", "profile",
	"automaton", "trace", "reduce", "engine", "serve", "eval",
}

// cmdReport prints each layer's self-time share per workload from the
// traced runs under DIR, and the tracing overhead against the untraced
// runs in the same directory.
func cmdReport(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench report DIR")
		return 2
	}
	runs, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	traced, untraced := byWorkload(runs, true), byWorkload(runs, false)
	workloads := make([]string, 0, len(traced))
	for w := range traced {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		med := map[string]float64{}
		total := 0.0
		for _, l := range shareLayers {
			var xs []float64
			for _, r := range traced[w] {
				if v, ok := r.Layers[l]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				med[l] = median(xs)
				total += med[l]
			}
		}
		fmt.Printf("%s: %d traced runs, %.3f ms self time per operation\n", w, len(traced[w]), total)
		for _, l := range shareLayers {
			if v, ok := med[l]; ok {
				fmt.Printf("  %-10s %10.3f ms %6.1f%%\n", l, v, 100*v/total)
			}
		}
		var tops, uops []float64
		for _, r := range traced[w] {
			tops = append(tops, r.Result.Metrics["tracing.ops_per_cpu_s"].Value)
		}
		for _, r := range untraced[w] {
			uops = append(uops, r.Result.Metrics["req_per_cpu_s"].Value)
		}
		if len(uops) > 0 && len(tops) > 0 {
			fmt.Printf("  tracing overhead: untraced req_per_cpu_s %.4g vs traced %.4g ops per CPU second (%+.1f%%)\n",
				median(uops), median(tops), 100*(median(uops)/median(tops)-1))
		}
	}
	return 0
}
