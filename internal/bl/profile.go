package bl

import (
	"fmt"
	"sort"
	"strings"

	"pathflow/internal/cfg"
)

// Profile is a Ball-Larus path profile for one function: a multiset of
// Ball-Larus paths (paper Definition 8).
type Profile struct {
	FuncName string
	R        map[cfg.EdgeID]bool
	Entries  map[string]*Entry
}

// Entry is one path with its execution count.
type Entry struct {
	Path  Path
	Count int64
}

// NewProfile returns an empty profile for a function whose recording-edge
// set is R.
func NewProfile(name string, R map[cfg.EdgeID]bool) *Profile {
	return &Profile{FuncName: name, R: R, Entries: map[string]*Entry{}}
}

// Add records n more executions of path p.
func (pr *Profile) Add(p Path, n int64) {
	k := p.Key()
	if e, ok := pr.Entries[k]; ok {
		e.Count += n
		return
	}
	pr.Entries[k] = &Entry{Path: p, Count: n}
}

// NumPaths returns the number of distinct executed paths (the "Paths"
// column of the paper's Table 1).
func (pr *Profile) NumPaths() int { return len(pr.Entries) }

// TotalCount returns the total number of path traversals.
func (pr *Profile) TotalCount() int64 {
	var n int64
	for _, e := range pr.Entries {
		n += e.Count
	}
	return n
}

// DynInstrs returns the number of dynamic instructions the profile covers:
// Σ Count × NumInstrs(path). This matches the interpreter's dynamic
// instruction count for the run that produced the profile.
func (pr *Profile) DynInstrs(g *cfg.Graph) int64 {
	var n int64
	for _, e := range pr.Entries {
		n += e.Count * int64(e.Path.NumInstrs(g))
	}
	return n
}

// SortedEntries returns the entries ordered by descending dynamic
// instructions (count × length), breaking ties by path key — the order in
// which the paper's hot-path selection considers paths.
func (pr *Profile) SortedEntries(g *cfg.Graph) []*Entry {
	return pr.sortedBy(func(e *Entry) int64 { return e.Count * int64(e.Path.NumInstrs(g)) })
}

// sortedBy returns the entries ordered by descending rank, breaking ties
// by path key. Each entry's rank and key are computed once, not per
// comparison.
func (pr *Profile) sortedBy(rank func(*Entry) int64) []*Entry {
	type ranked struct {
		e    *Entry
		rank int64
		key  string
	}
	rs := make([]ranked, 0, len(pr.Entries))
	for _, e := range pr.Entries {
		rs = append(rs, ranked{e, rank(e), e.Path.Key()})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank > rs[j].rank
		}
		return rs[i].key < rs[j].key
	})
	es := make([]*Entry, len(rs))
	for i, r := range rs {
		es[i] = r.e
	}
	return es
}

// Validate checks every entry against Definition 7.
func (pr *Profile) Validate(g *cfg.Graph) error {
	for _, e := range pr.Entries {
		if err := e.Path.Validate(g, pr.R); err != nil {
			return fmt.Errorf("profile of %s: %w", pr.FuncName, err)
		}
		if e.Count < 0 {
			return fmt.Errorf("profile of %s: negative count for %s", pr.FuncName, e.Path.Key())
		}
	}
	return nil
}

// Equal reports whether two profiles record the same multiset of paths.
func (pr *Profile) Equal(other *Profile) bool {
	if len(pr.Entries) != len(other.Entries) {
		return false
	}
	for k, e := range pr.Entries {
		o, ok := other.Entries[k]
		if !ok || o.Count != e.Count {
			return false
		}
	}
	return true
}

// String renders the profile sorted by count then key, one path per line.
func (pr *Profile) String(g *cfg.Graph) string {
	var b strings.Builder
	for _, e := range pr.sortedBy(func(e *Entry) int64 { return e.Count }) {
		fmt.Fprintf(&b, "%8d %s\n", e.Count, e.Path.String(g))
	}
	return b.String()
}

// ProgramProfile maps each function name to its path profile.
type ProgramProfile struct {
	Funcs map[string]*Profile
}

// NewProgramProfile returns an empty program profile.
func NewProgramProfile() *ProgramProfile {
	return &ProgramProfile{Funcs: map[string]*Profile{}}
}

// TotalPaths sums the distinct executed path counts over all functions.
func (pp *ProgramProfile) TotalPaths() int {
	n := 0
	for _, p := range pp.Funcs {
		n += p.NumPaths()
	}
	return n
}
