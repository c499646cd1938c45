package bl

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"pathflow/internal/cfg"
)

// Profile serialization. The paper's workflow separates the profiled
// training run (the PP pass) from the analysis run (the PW pass), so
// profiles must survive as artifacts between compiler invocations. Paths
// are stored as edge-ID sequences, which are only meaningful against the
// exact CFG they were collected on — a structural fingerprint guards
// against replaying a profile onto a different build of the program.

// profileJSON is the on-disk form of one function's profile.
type profileJSON struct {
	Func      string       `json:"func"`
	Recording []cfg.EdgeID `json:"recording"`
	Paths     []pathJSON   `json:"paths"`
}

type pathJSON struct {
	Edges []cfg.EdgeID `json:"edges"`
	Count int64        `json:"count"`
}

// programProfileJSON is the on-disk form of a program profile.
type programProfileJSON struct {
	Version     int           `json:"version"`
	Fingerprint uint64        `json:"fingerprint"`
	Funcs       []profileJSON `json:"funcs"`
}

// serializationVersion guards the format.
const serializationVersion = 1

// Fingerprint computes a structural hash of a program's CFGs: node
// terminators, instruction opcodes and edge endpoints, per function in
// declaration order. A profile only replays onto a program with the same
// fingerprint.
func Fingerprint(prog *cfg.Program) uint64 {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		w("func %s vars=%d\n", name, f.NumVars())
		for _, nd := range f.G.Nodes {
			w("n%d k%d c%d r%d:", nd.ID, nd.Kind, nd.Cond, nd.Ret)
			for i := range nd.Instrs {
				in := &nd.Instrs[i]
				w(" %d/%d/%d/%d/%d/%s", in.Op, in.Dst, in.A, in.B, in.K, in.Callee)
			}
			w("\n")
		}
		for _, e := range f.G.Edges {
			w("e%d %d->%d\n", e.ID, e.From, e.To)
		}
	}
	return h.Sum64()
}

// Save writes the program profile to w as JSON, bound to prog's
// fingerprint.
func (pp *ProgramProfile) Save(w io.Writer, prog *cfg.Program) error {
	out := programProfileJSON{
		Version:     serializationVersion,
		Fingerprint: Fingerprint(prog),
	}
	names := make([]string, 0, len(pp.Funcs))
	for name := range pp.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := pp.Funcs[name]
		pj := profileJSON{Func: name, Recording: cfg.SortedEdgeIDs(pr.R)}
		keys := make([]string, 0, len(pr.Entries))
		for k := range pr.Entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := pr.Entries[k]
			pj.Paths = append(pj.Paths, pathJSON{Edges: e.Path.Edges, Count: e.Count})
		}
		out.Funcs = append(out.Funcs, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}

// Load reads a program profile from r and validates it against prog:
// the fingerprint must match and every path must satisfy Definition 7.
func Load(r io.Reader, prog *cfg.Program) (*ProgramProfile, error) {
	var in programProfileJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("bl: decode profile: %w", err)
	}
	if in.Version != serializationVersion {
		return nil, fmt.Errorf("bl: profile version %d, want %d", in.Version, serializationVersion)
	}
	if got := Fingerprint(prog); in.Fingerprint != got {
		return nil, fmt.Errorf("bl: profile fingerprint %x does not match program %x — was it collected on a different build?", in.Fingerprint, got)
	}
	pp := NewProgramProfile()
	for _, pj := range in.Funcs {
		fn, ok := prog.Funcs[pj.Func]
		if !ok {
			return nil, fmt.Errorf("bl: profile mentions unknown function %q", pj.Func)
		}
		R := map[cfg.EdgeID]bool{}
		for _, e := range pj.Recording {
			if int(e) >= fn.G.NumEdges() || e < 0 {
				return nil, fmt.Errorf("bl: %s: recording edge %d out of range", pj.Func, e)
			}
			R[e] = true
		}
		pr := NewProfile(pj.Func, R)
		for _, p := range pj.Paths {
			path := Path{Edges: p.Edges}
			if err := path.Validate(fn.G, R); err != nil {
				return nil, fmt.Errorf("bl: %s: %w", pj.Func, err)
			}
			if p.Count < 0 {
				return nil, fmt.Errorf("bl: %s: negative count", pj.Func)
			}
			// Save writes each path once; a repeat would sum counts
			// (possibly past int64) instead of restoring them.
			if _, dup := pr.Entries[path.Key()]; dup {
				return nil, fmt.Errorf("bl: %s: duplicate path %s", pj.Func, path.Key())
			}
			pr.Add(path, p.Count)
		}
		pp.Funcs[pj.Func] = pr
	}
	return pp, nil
}
