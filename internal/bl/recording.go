package bl

import "pathflow/internal/cfg"

// RecordingEdges returns the minimal recording-edge set of the paper's
// §2.3: all edges leaving the entry vertex, all edges entering the exit
// vertex, and all retreating edges of the deterministic depth-first
// traversal. Removing these edges leaves the reachable graph acyclic.
//
// Callers may add further edges to the returned set; every algorithm in
// this module works with any superset of the minimal set.
func RecordingEdges(g *cfg.Graph) map[cfg.EdgeID]bool {
	R := map[cfg.EdgeID]bool{}
	for _, e := range g.Node(g.Entry).Out {
		R[e] = true
	}
	for _, e := range g.Node(g.Exit).In {
		R[e] = true
	}
	dfs := g.DepthFirst()
	for e := range dfs.Retreating {
		R[e] = true
	}
	return R
}

// AcyclicCheck reports whether removing R leaves the reachable part of g
// acyclic. NewNumbering checks the same condition while it orders the
// graph; tests call this check directly.
func AcyclicCheck(g *cfg.Graph, R map[cfg.EdgeID]bool) bool {
	// Kahn's algorithm restricted to reachable nodes and non-R edges.
	dfs := g.DepthFirst()
	indeg := make([]int, g.NumNodes())
	nodes := 0
	for _, n := range g.Nodes {
		if !dfs.Reachable(n.ID) {
			continue
		}
		nodes++
		for _, eid := range n.In {
			e := g.Edge(eid)
			if R[eid] || !dfs.Reachable(e.From) {
				continue
			}
			indeg[n.ID]++
		}
	}
	var queue []cfg.NodeID
	for _, n := range g.Nodes {
		if dfs.Reachable(n.ID) && indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	seen := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, eid := range g.Node(n).Out {
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
	return seen == nodes
}
