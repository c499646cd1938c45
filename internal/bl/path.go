// Package bl implements Ball-Larus path profiling (Ball & Larus, MICRO
// 1996), the profile substrate of Ammons & Larus (PLDI 1998).
//
// A Ball-Larus path (paper Definition 7) is a placeholder • — standing for
// "some recording edge" — followed by a path in the CFG from the target of
// a recording edge to the target of another recording edge, containing no
// recording edge except its last edge. The minimal recording-edge set R
// (edges from entry, edges into exit, retreating edges) makes the graph
// acyclic when removed, so the set of Ball-Larus paths is finite.
//
// Training runs (ProfileProgram) use the efficient instrumentation scheme
// of the MICRO '96 paper: per-edge increments on the acyclicized graph
// sum to a compact integer path id, each run bumps one counter per
// (start vertex, path id), and each distinct path is regenerated from
// its id once, after the run. A direct Tracker, which carves the
// interpreter's edge trace at recording edges, is the independent
// reference the numbered profiles are tested against (TrackProgram), and
// profiles the rare function whose path count overflows the numbering.
// Both produce the same Profile, keys and all.
package bl

import (
	"fmt"
	"strconv"
	"strings"

	"pathflow/internal/cfg"
)

// Path is one Ball-Larus path, stored as its edge sequence e1..ek. The
// leading • is implicit; ek is the path's terminating recording edge; no
// other ei is a recording edge.
type Path struct {
	Edges []cfg.EdgeID
}

// Key returns a canonical map key for the path.
func (p Path) Key() string {
	b := make([]byte, 0, 4*len(p.Edges))
	for i, e := range p.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// Len returns the number of edges (excluding the • placeholder).
func (p Path) Len() int { return len(p.Edges) }

// Start returns the first vertex of the path (the target of the • edge).
func (p Path) Start(g *cfg.Graph) cfg.NodeID {
	if len(p.Edges) == 0 {
		return cfg.NoNode
	}
	return g.Edge(p.Edges[0]).From
}

// End returns the final vertex (the target of the closing recording edge).
func (p Path) End(g *cfg.Graph) cfg.NodeID {
	if len(p.Edges) == 0 {
		return cfg.NoNode
	}
	return g.Edge(p.Edges[len(p.Edges)-1]).To
}

// Vertices returns the full vertex sequence v0..vk of the path, where v0
// is the target of the • recording edge.
func (p Path) Vertices(g *cfg.Graph) []cfg.NodeID {
	if len(p.Edges) == 0 {
		return nil
	}
	vs := make([]cfg.NodeID, 0, len(p.Edges)+1)
	vs = append(vs, g.Edge(p.Edges[0]).From)
	for _, e := range p.Edges {
		vs = append(vs, g.Edge(e).To)
	}
	return vs
}

// NumInstrs returns the number of IR instructions one traversal of the
// path executes. The final vertex is excluded: when paths chain, the end
// vertex of one path is the start vertex of the next, and its instructions
// are charged to that next path. Summing NumInstrs×frequency over a
// profile therefore reproduces the run's dynamic instruction count (the
// quantity the paper's coverage parameter CA is measured against).
func (p Path) NumInstrs(g *cfg.Graph) int {
	n := 0
	for i, e := range p.Edges {
		// The vertex before edge i: v0 for the first edge, else the
		// target of the edge before it.
		v := g.Edge(e).From
		if i > 0 {
			v = g.Edge(p.Edges[i-1]).To
		}
		n += len(g.Node(v).Instrs)
	}
	return n
}

// Trimmed returns the path without its final recording edge — the form the
// qualification automaton's keywords take (paper §3: "Trim the final
// recording edge from each hot path").
func (p Path) Trimmed() Path {
	if len(p.Edges) == 0 {
		return Path{}
	}
	return Path{Edges: p.Edges[:len(p.Edges)-1]}
}

// String renders the path as the paper writes them: a • followed by
// vertex names.
func (p Path) String(g *cfg.Graph) string {
	var b strings.Builder
	b.WriteString("[•")
	for _, v := range p.Vertices(g) {
		b.WriteString(",")
		n := g.Node(v)
		if n.Name != "" {
			b.WriteString(n.Name)
		} else {
			fmt.Fprintf(&b, "n%d", v)
		}
	}
	b.WriteString("]")
	return b.String()
}

// Validate checks that the path satisfies Definition 7 with respect to the
// recording-edge set R: edges are connected, only the final edge is
// recording, and the path starts at a recording-edge target. Paths read
// from outside (saved profiles, snapshots) may name any edge, so every
// edge is range-checked against g before g is indexed.
func (p Path) Validate(g *cfg.Graph, R map[cfg.EdgeID]bool) error {
	if len(p.Edges) == 0 {
		return fmt.Errorf("bl: empty path")
	}
	for _, e := range p.Edges {
		if e < 0 || int(e) >= g.NumEdges() {
			return fmt.Errorf("bl: path %s has edge %d out of range", p.Key(), e)
		}
	}
	for i, e := range p.Edges {
		last := i == len(p.Edges)-1
		if R[e] != last {
			if last {
				return fmt.Errorf("bl: path %s does not end with a recording edge", p.Key())
			}
			return fmt.Errorf("bl: path %s has interior recording edge %d", p.Key(), e)
		}
		if i > 0 && g.Edge(e).From != g.Edge(p.Edges[i-1]).To {
			return fmt.Errorf("bl: path %s is disconnected at position %d", p.Key(), i)
		}
	}
	start := p.Start(g)
	startOK := false
	for r := range R {
		if g.Edge(r).To == start {
			startOK = true
			break
		}
	}
	if !startOK {
		return fmt.Errorf("bl: path %s starts at %d, not a recording-edge target", p.Key(), start)
	}
	return nil
}
