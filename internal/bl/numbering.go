package bl

import (
	"fmt"
	"math"

	"pathflow/internal/cfg"
)

// Numbering is the Ball-Larus efficient path-profiling scheme: it assigns
// every edge of the acyclicized graph an increment such that summing the
// increments along any Ball-Larus path yields a compact integer that,
// together with the path's start vertex, uniquely identifies the path.
//
// With the recording-edge formulation of the PLDI '98 paper, a Ball-Larus
// path is a DAG path (over non-recording edges) followed by one final
// recording edge. NumPaths(v) counts the path suffixes beginning at v:
//
//	NumPaths(v) = Σ_{(v,w) ∉ R} NumPaths(w) + |{(v,w) ∈ R}|
//
// Non-recording out-edges receive the usual prefix-sum increment Val;
// recording out-edges receive a terminal value TermVal that closes the
// path id.
type Numbering struct {
	G *cfg.Graph
	R map[cfg.EdgeID]bool
	// NumPaths[v] is the number of Ball-Larus path suffixes from v;
	// zero for the exit node and unreachable nodes.
	NumPaths []int64
	// Val[e] is the increment for a non-recording edge, or the terminal
	// value for a recording edge; -1 for edges out of unreachable nodes.
	Val []int64
}

// ErrTooManyPaths reports int64 overflow while counting paths; a graph
// with that many acyclic paths cannot be profiled with this scheme.
var ErrTooManyPaths = fmt.Errorf("bl: path count overflows int64")

// NewNumbering computes the numbering for g under recording-edge set R.
// R must contain at least the minimal set (see RecordingEdges) so that
// the non-recording subgraph is acyclic.
func NewNumbering(g *cfg.Graph, R map[cfg.EdgeID]bool) (*Numbering, error) {
	dfs := g.DepthFirst()
	n := &Numbering{
		G:        g,
		R:        R,
		NumPaths: make([]int64, g.NumNodes()),
		Val:      make([]int64, g.NumEdges()),
	}
	for i := range n.Val {
		n.Val[i] = -1
	}
	// Process in reverse topological order of the non-recording subgraph;
	// topoOrder fails if R does not make that subgraph acyclic.
	order, err := topoOrder(g, R, dfs)
	if err != nil {
		return nil, err
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var acc int64
		for _, eid := range g.Node(v).Out {
			e := g.Edge(eid)
			n.Val[eid] = acc
			if R[eid] {
				acc++
			} else {
				acc += n.NumPaths[e.To]
				if acc < 0 || acc > math.MaxInt64/2 {
					return nil, ErrTooManyPaths
				}
			}
		}
		n.NumPaths[v] = acc
	}
	return n, nil
}

// topoOrder returns the reachable nodes in a topological order of the
// non-recording subgraph.
func topoOrder(g *cfg.Graph, R map[cfg.EdgeID]bool, dfs *cfg.DFS) ([]cfg.NodeID, error) {
	indeg := make([]int, g.NumNodes())
	for _, e := range g.Edges {
		if R[e.ID] || !dfs.Reachable(e.From) || !dfs.Reachable(e.To) {
			continue
		}
		indeg[e.To]++
	}
	var queue, order []cfg.NodeID
	for _, nd := range g.Nodes {
		if dfs.Reachable(nd.ID) && indeg[nd.ID] == 0 {
			queue = append(queue, nd.ID)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, eid := range g.Node(v).Out {
			e := g.Edge(eid)
			if R[eid] || !dfs.Reachable(e.To) {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != dfs.NumReachable() {
		return nil, fmt.Errorf("bl: recording edges do not acyclicize %s", g.Name)
	}
	return order, nil
}

// PathID computes the (start vertex, id) pair of a Ball-Larus path by
// summing edge values, as the instrumented program would.
func (n *Numbering) PathID(p Path) (cfg.NodeID, int64, error) {
	if err := p.Validate(n.G, n.R); err != nil {
		return cfg.NoNode, 0, err
	}
	var id int64
	for _, e := range p.Edges {
		id += n.Val[e]
	}
	return p.Start(n.G), id, nil
}

// Regenerate reconstructs the unique path with the given start vertex and
// path id — the step a post-processing tool performs to turn the compact
// profile counters back into paths.
func (n *Numbering) Regenerate(start cfg.NodeID, id int64) (Path, error) {
	if start < 0 || int(start) >= n.G.NumNodes() {
		return Path{}, fmt.Errorf("bl: regenerate: start %d out of range", start)
	}
	if id < 0 || id >= n.NumPaths[start] {
		return Path{}, fmt.Errorf("bl: regenerate: id %d out of range [0,%d) at node %d", id, n.NumPaths[start], start)
	}
	var edges []cfg.EdgeID
	v := start
	for {
		nd := n.G.Node(v)
		// Find the out-edge whose value interval contains id. Intervals
		// are in out-slot order: recording edges span exactly one id.
		chosen := cfg.NoEdge
		for i := len(nd.Out) - 1; i >= 0; i-- {
			eid := nd.Out[i]
			if n.Val[eid] <= id {
				chosen = eid
				break
			}
		}
		if chosen == cfg.NoEdge {
			return Path{}, fmt.Errorf("bl: regenerate: no edge at node %d for id %d", v, id)
		}
		edges = append(edges, chosen)
		if n.R[chosen] {
			if id != n.Val[chosen] {
				return Path{}, fmt.Errorf("bl: regenerate: id mismatch at terminal edge %d", chosen)
			}
			return Path{Edges: edges}, nil
		}
		id -= n.Val[chosen]
		v = n.G.Edge(chosen).To
	}
}

// TotalPaths returns the number of distinct Ball-Larus paths starting at v.
func (n *Numbering) TotalPaths(v cfg.NodeID) int64 { return n.NumPaths[v] }

// PotentialPaths returns the total number of distinct Ball-Larus paths of
// the whole graph — the paper's "universe of acyclic paths". Start
// vertices are the targets of recording edges.
func (n *Numbering) PotentialPaths() int64 {
	seen := map[cfg.NodeID]bool{}
	var total int64
	for eid := range n.R {
		t := n.G.Edge(eid).To
		if seen[t] {
			continue
		}
		seen[t] = true
		total += n.NumPaths[t]
		if total < 0 {
			return math.MaxInt64
		}
	}
	return total
}
