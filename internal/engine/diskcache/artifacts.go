package diskcache

import (
	"sort"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/ir"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// Costs records the per-stage compute cost of the run that produced a
// bundle, keyed by stage name. It rides inside every bundle so a disk
// hit can still report the stage durations the artifact originally cost
// (keeping Figure 12-style cost ratios meaningful under caching), the
// same convention the in-memory tier uses.
type Costs map[string]time.Duration

// Meta is the provenance envelope every bundle carries: the per-stage
// compute costs of the run that produced it, plus the delta class of
// that run — "cold" for a from-scratch computation, or the edit class
// ("none", "body", "counts", "shape") of the incremental re-analysis
// that dirtied and recomputed this stage. The class is provenance only:
// it never participates in the key, so bundles written by incremental
// and cold runs of identical inputs interchange freely.
type Meta struct {
	Costs Costs
	Class string
}

func encodeMeta(e *enc, m Meta) {
	encodeCosts(e, m.Costs)
	e.str(m.Class)
}

func decodeMeta(d *dec) Meta {
	return Meta{Costs: decodeCosts(d), Class: d.str()}
}

func encodeCosts(e *enc, c Costs) {
	// Deterministic order is not required (the map is consumed, not
	// hashed), but sorting costs nothing at these sizes and keeps
	// payloads reproducible for debugging. Stage names are short.
	names := make([]string, 0, len(c))
	for s := range c {
		names = append(names, s)
	}
	sort.Strings(names)
	e.u64(uint64(len(names)))
	for _, s := range names {
		e.str(s)
		e.i64(int64(c[s]))
	}
}

func decodeCosts(d *dec) Costs {
	n := d.sliceLen()
	c := make(Costs, n)
	for i := 0; i < n; i++ {
		s := d.str()
		v := d.i64()
		if d.err != nil {
			return nil
		}
		c[s] = time.Duration(v)
	}
	return c
}

// --- Hot-path sets --------------------------------------------------------

func encodeHot(e *enc, hot []bl.Path) {
	e.u64(uint64(len(hot)))
	for _, p := range hot {
		e.u64(uint64(len(p.Edges)))
		for _, eid := range p.Edges {
			e.i64(int64(eid))
		}
	}
}

func decodeHot(d *dec, g *cfg.Graph) []bl.Path {
	n := d.sliceLen()
	hot := make([]bl.Path, 0, n)
	for i := 0; i < n; i++ {
		m := d.sliceLen()
		edges := make([]cfg.EdgeID, m)
		for j := 0; j < m; j++ {
			eid := d.i64()
			if eid < 0 || eid >= int64(g.NumEdges()) {
				d.fail()
				return nil
			}
			edges[j] = cfg.EdgeID(eid)
		}
		hot = append(hot, bl.Path{Edges: edges})
	}
	return hot
}

// --- Data-flow solutions --------------------------------------------------

// encodeSolution writes a constant-propagation solution without its
// graph (the graph is either caller-owned — the baseline runs on the
// original function — or encoded alongside in the same bundle).
func encodeSolution(e *enc, r *constprop.Result) {
	sol := r.Sol
	e.u64(uint64(len(sol.Reached)))
	for i, reached := range sol.Reached {
		e.bool(reached)
		env, _ := sol.In[i].(constprop.Env)
		if env == nil {
			e.bool(false)
			continue
		}
		e.bool(true)
		e.u64(uint64(len(env)))
		for _, v := range env {
			e.byte(byte(v.Kind))
			e.i64(v.K)
		}
	}
	e.u64(uint64(len(sol.EdgeExecutable)))
	for _, x := range sol.EdgeExecutable {
		e.bool(x)
	}
	e.int(sol.Iterations)
}

// decodeSolution reads a solution and attaches it to g, validating that
// the recorded shape matches the graph's.
func decodeSolution(d *dec, g *cfg.Graph, numVars int) *constprop.Result {
	nNodes := d.sliceLen()
	if d.err != nil || nNodes != g.NumNodes() {
		d.fail()
		return nil
	}
	sol := &dataflow.Solution{
		In:      make([]dataflow.Fact, nNodes),
		Reached: make([]bool, nNodes),
	}
	for i := 0; i < nNodes; i++ {
		sol.Reached[i] = d.bool()
		if !d.bool() {
			continue
		}
		m := d.sliceLen()
		if d.err != nil || m != numVars {
			d.fail()
			return nil
		}
		env := make(constprop.Env, m)
		for j := 0; j < m; j++ {
			k := constprop.Kind(d.byte())
			if k > constprop.Bottom {
				d.fail()
				return nil
			}
			env[j] = constprop.Value{Kind: k, K: d.i64()}
		}
		sol.In[i] = env
	}
	nEdges := d.sliceLen()
	if d.err != nil || nEdges != g.NumEdges() {
		d.fail()
		return nil
	}
	sol.EdgeExecutable = make([]bool, nEdges)
	for i := 0; i < nEdges; i++ {
		sol.EdgeExecutable[i] = d.bool()
	}
	sol.Iterations = d.int()
	if d.err != nil {
		return nil
	}
	return &constprop.Result{G: g, Sol: sol}
}

// --- Graphs ---------------------------------------------------------------

// encodeGraph writes a full cfg.Graph: nodes with instructions and
// terminators, then edges in ID order. Replaying the edge list through
// AddEdge reproduces identical Out/In lists and successor slots, because
// slot order within a node follows global edge-ID order for every graph
// the pipeline builds.
func encodeGraph(e *enc, g *cfg.Graph) {
	e.str(g.Name)
	e.int(int(g.Entry))
	e.int(int(g.Exit))
	e.u64(uint64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		e.str(nd.Name)
		e.byte(byte(nd.Kind))
		e.i64(int64(nd.Cond))
		e.i64(int64(nd.Ret))
		e.u64(uint64(len(nd.Instrs)))
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			e.byte(byte(in.Op))
			e.i64(int64(in.Dst))
			e.i64(int64(in.A))
			e.i64(int64(in.B))
			e.i64(in.K)
			e.str(in.Callee)
			e.u64(uint64(len(in.Args)))
			for _, a := range in.Args {
				e.i64(int64(a))
			}
		}
	}
	e.u64(uint64(len(g.Edges)))
	for _, ed := range g.Edges {
		e.int(int(ed.From))
		e.int(int(ed.To))
	}
}

// decodeGraph reads a graph and validates its structural invariants
// against numVars (terminator arity, slot consistency, register ranges).
func decodeGraph(d *dec, numVars int) *cfg.Graph {
	g := &cfg.Graph{Name: d.str()}
	entry, exit := d.int(), d.int()
	nNodes := d.sliceLen()
	for i := 0; i < nNodes; i++ {
		id := g.AddNode(d.str())
		nd := g.Node(id)
		nd.Kind = cfg.TermKind(d.byte())
		nd.Cond = ir.Var(d.i64())
		nd.Ret = ir.Var(d.i64())
		nInstrs := d.sliceLen()
		if d.err != nil {
			return nil
		}
		nd.Instrs = make([]ir.Instr, nInstrs)
		for j := 0; j < nInstrs; j++ {
			in := &nd.Instrs[j]
			in.Op = ir.Op(d.byte())
			in.Dst = ir.Var(d.i64())
			in.A = ir.Var(d.i64())
			in.B = ir.Var(d.i64())
			in.K = d.i64()
			in.Callee = d.str()
			nArgs := d.sliceLen()
			if d.err != nil {
				return nil
			}
			in.Args = make([]ir.Var, nArgs)
			for k := 0; k < nArgs; k++ {
				in.Args[k] = ir.Var(d.i64())
			}
		}
	}
	nEdges := d.sliceLen()
	for i := 0; i < nEdges; i++ {
		from, to := d.int(), d.int()
		if d.err != nil || from < 0 || from >= nNodes || to < 0 || to >= nNodes {
			d.fail()
			return nil
		}
		g.AddEdge(cfg.NodeID(from), cfg.NodeID(to))
	}
	if d.err != nil || entry < 0 || entry >= nNodes || exit < 0 || exit >= nNodes {
		d.fail()
		return nil
	}
	g.Entry, g.Exit = cfg.NodeID(entry), cfg.NodeID(exit)
	if err := g.Validate(numVars); err != nil {
		d.fail()
		return nil
	}
	return g
}

// --- Profiles -------------------------------------------------------------

// encodeProfile writes a Ball-Larus profile in canonical (sorted) order.
func encodeProfile(e *enc, pr *bl.Profile) {
	e.str(pr.FuncName)
	redges := cfg.SortedEdgeIDs(pr.R)
	e.u64(uint64(len(redges)))
	for _, eid := range redges {
		e.i64(int64(eid))
	}
	keys := make([]string, 0, len(pr.Entries))
	for k := range pr.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		ent := pr.Entries[k]
		e.u64(uint64(len(ent.Path.Edges)))
		for _, eid := range ent.Path.Edges {
			e.i64(int64(eid))
		}
		e.i64(ent.Count)
	}
}

// decodeProfile reads a profile whose edge IDs must lie within g.
func decodeProfile(d *dec, g *cfg.Graph) *bl.Profile {
	name := d.str()
	nR := d.sliceLen()
	R := make(map[cfg.EdgeID]bool, nR)
	for i := 0; i < nR; i++ {
		eid := d.i64()
		if eid < 0 || eid >= int64(g.NumEdges()) {
			d.fail()
			return nil
		}
		R[cfg.EdgeID(eid)] = true
	}
	pr := bl.NewProfile(name, R)
	nEntries := d.sliceLen()
	for i := 0; i < nEntries; i++ {
		m := d.sliceLen()
		edges := make([]cfg.EdgeID, m)
		for j := 0; j < m; j++ {
			eid := d.i64()
			if eid < 0 || eid >= int64(g.NumEdges()) {
				d.fail()
				return nil
			}
			edges[j] = cfg.EdgeID(eid)
		}
		count := d.i64()
		if d.err != nil || count < 0 {
			d.fail()
			return nil
		}
		pr.Add(bl.Path{Edges: edges}, count)
	}
	if d.err != nil {
		return nil
	}
	return pr
}

// --- Automata -------------------------------------------------------------

func encodeAutomaton(e *enc, a *automaton.Automaton) {
	snap := a.Snapshot()
	e.u64(uint64(len(snap.Trans)))
	for q, ts := range snap.Trans {
		e.bool(snap.Accept[q])
		e.i64(int64(snap.Depth[q]))
		e.u64(uint64(len(ts)))
		for _, t := range ts {
			e.i64(int64(t.Edge))
			e.i64(int64(t.To))
		}
	}
	e.int(snap.NumKeywords)
}

func decodeAutomaton(d *dec, R map[cfg.EdgeID]bool) *automaton.Automaton {
	n := d.sliceLen()
	snap := &automaton.Snapshot{
		Trans:  make([][]automaton.TransEdge, n),
		Accept: make([]bool, n),
		Depth:  make([]int32, n),
	}
	for q := 0; q < n; q++ {
		snap.Accept[q] = d.bool()
		snap.Depth[q] = int32(d.i64())
		m := d.sliceLen()
		ts := make([]automaton.TransEdge, m)
		for i := 0; i < m; i++ {
			ts[i] = automaton.TransEdge{
				Edge: cfg.EdgeID(d.i64()),
				To:   automaton.State(d.i64()),
			}
		}
		snap.Trans[q] = ts
	}
	snap.NumKeywords = d.int()
	if d.err != nil {
		return nil
	}
	a, err := automaton.FromSnapshot(R, snap)
	if err != nil {
		d.fail()
		return nil
	}
	return a
}

// --- Bundles --------------------------------------------------------------

// encodeBundle writes the envelope every bundle shares — the Meta
// provenance, then the kind's payload written by body — and frames it.
func encodeBundle(kind Kind, meta Meta, body func(*enc)) []byte {
	var e enc
	encodeMeta(&e, meta)
	body(&e)
	return frame(kind, e.b)
}

// decodeBundle unframes a bundle of the given kind, reads its Meta, and
// reads the payload with body, which reports structural defects through
// d.fail. The payload must be consumed exactly.
func decodeBundle[T any](kind Kind, data []byte, body func(*dec) T) (Meta, T, error) {
	var zero T
	payload, err := unframe(kind, data)
	if err != nil {
		return Meta{}, zero, err
	}
	d := &dec{b: payload}
	meta := decodeMeta(d)
	v := body(d)
	if err := d.done(); err != nil {
		return Meta{}, zero, err
	}
	return meta, v, nil
}

// EncodeSelect frames a hot-path selection bundle.
func EncodeSelect(meta Meta, hot []bl.Path) []byte {
	return encodeBundle(KindSelect, meta, func(e *enc) { encodeHot(e, hot) })
}

// DecodeSelect decodes a selection bundle; edge IDs are validated
// against the function's graph.
func DecodeSelect(data []byte, g *cfg.Graph) (Meta, []bl.Path, error) {
	return decodeBundle(KindSelect, data, func(d *dec) []bl.Path { return decodeHot(d, g) })
}

// EncodeBaseline frames a CA = 0 baseline-solution bundle.
func EncodeBaseline(meta Meta, sol *constprop.Result) []byte {
	return encodeBundle(KindBaseline, meta, func(e *enc) { encodeSolution(e, sol) })
}

// DecodeBaseline decodes a baseline bundle against the function's own
// graph (which the solution is re-attached to).
func DecodeBaseline(data []byte, g *cfg.Graph, numVars int) (Meta, *constprop.Result, error) {
	return decodeBundle(KindBaseline, data, func(d *dec) *constprop.Result { return decodeSolution(d, g, numVars) })
}

// EncodeAnalyze frames the HPG analysis bundle: the Wegman-Zadek
// solution on the traced graph, without the graph itself (the trace
// bundle owns the graph; the decoder re-attaches).
func EncodeAnalyze(meta Meta, sol *constprop.Result) []byte {
	return encodeBundle(KindAnalyze, meta, func(e *enc) { encodeSolution(e, sol) })
}

// DecodeAnalyze decodes an analyze bundle against the live HPG graph it
// was computed on (revived from the trace bundle or freshly traced —
// the Merkle chain guarantees the shapes agree, and the decoder
// re-validates them).
func DecodeAnalyze(data []byte, g *cfg.Graph, numVars int) (Meta, *constprop.Result, error) {
	return decodeBundle(KindAnalyze, data, func(d *dec) *constprop.Result { return decodeSolution(d, g, numVars) })
}

// EncodeAutomatonBundle frames a qualification-automaton bundle.
func EncodeAutomatonBundle(meta Meta, a *automaton.Automaton) []byte {
	return encodeBundle(KindAutomaton, meta, func(e *enc) { encodeAutomaton(e, a) })
}

// DecodeAutomatonBundle decodes an automaton bundle, rebuilding the
// automaton against recording set R (owned by the training profile the
// bundle was keyed by).
func DecodeAutomatonBundle(data []byte, R map[cfg.EdgeID]bool) (Meta, *automaton.Automaton, error) {
	return decodeBundle(KindAutomaton, data, func(d *dec) *automaton.Automaton { return decodeAutomaton(d, R) })
}

// EncodeTrace frames a traced-HPG bundle: the traced graph plus its
// per-node and per-edge maps back to the original function. The
// automaton is not re-encoded — the trace key chains the automaton key,
// so the decoder receives the same automaton the graph was traced with.
func EncodeTrace(meta Meta, h *trace.HPG) []byte {
	return encodeBundle(KindTrace, meta, func(e *enc) {
		encodeGraph(e, h.G)
		for _, v := range h.OrigNode {
			e.i64(int64(v))
		}
		for _, q := range h.State {
			e.i64(int64(q))
		}
		for _, eid := range h.OrigEdge {
			e.i64(int64(eid))
		}
	})
}

// DecodeTrace decodes a trace bundle for fn, reassembling the HPG
// around the supplied automaton with full revalidation.
func DecodeTrace(data []byte, fn *cfg.Func, a *automaton.Automaton) (Meta, *trace.HPG, error) {
	return decodeBundle(KindTrace, data, func(d *dec) *trace.HPG {
		g := decodeGraph(d, fn.NumVars())
		if g == nil {
			return nil
		}
		origNode := make([]cfg.NodeID, g.NumNodes())
		for i := range origNode {
			origNode[i] = cfg.NodeID(d.i64())
		}
		state := make([]automaton.State, g.NumNodes())
		for i := range state {
			state[i] = automaton.State(d.i64())
		}
		origEdge := make([]cfg.EdgeID, g.NumEdges())
		for i := range origEdge {
			origEdge[i] = cfg.EdgeID(d.i64())
		}
		if d.err != nil {
			return nil
		}
		h, err := trace.Assemble(fn, a, g, origNode, state, origEdge)
		if err != nil {
			d.fail()
		}
		return h
	})
}

// EncodeTranslate frames a translated-profile bundle (the training
// profile re-expressed on the HPG, Lemma 2).
func EncodeTranslate(meta Meta, prof *bl.Profile) []byte {
	return encodeBundle(KindTranslate, meta, func(e *enc) { encodeProfile(e, prof) })
}

// DecodeTranslate decodes a translate bundle against the live HPG graph
// whose edges the profile's paths traverse.
func DecodeTranslate(data []byte, g *cfg.Graph) (Meta, *bl.Profile, error) {
	return decodeBundle(KindTranslate, data, func(d *dec) *bl.Profile { return decodeProfile(d, g) })
}

// EncodeReduced frames a reduction bundle: the quotient graph with its
// HPG bookkeeping and the re-analyzed solution.
func EncodeReduced(meta Meta, red *reduce.Reduced, sol *constprop.Result) []byte {
	return encodeBundle(KindReduced, meta, func(e *enc) {
		encodeGraph(e, red.G)
		e.u64(uint64(len(red.Class)))
		for _, c := range red.Class {
			e.int(c)
		}
		e.u64(uint64(len(red.Members)))
		for _, ms := range red.Members {
			e.u64(uint64(len(ms)))
			for _, m := range ms {
				e.i64(int64(m))
			}
		}
		e.u64(uint64(len(red.Rep)))
		for _, r := range red.Rep {
			e.i64(int64(r))
		}
		for _, v := range red.OrigNode {
			e.i64(int64(v))
		}
		for _, eid := range red.OrigEdge {
			e.i64(int64(eid))
		}
		recording := cfg.SortedEdgeIDs(red.Recording)
		e.u64(uint64(len(recording)))
		for _, eid := range recording {
			e.i64(int64(eid))
		}
		e.u64(uint64(len(red.Hot)))
		for _, h := range red.Hot {
			e.i64(int64(h))
		}
		e.u64(uint64(len(red.Weights)))
		for _, w := range red.Weights {
			e.i64(w)
		}
		encodeSolution(e, sol)
	})
}

// DecodeReduced decodes a reduction bundle against the HPG it quotients.
func DecodeReduced(data []byte, h *trace.HPG) (Meta, *reduce.Reduced, *constprop.Result, error) {
	var sol *constprop.Result
	meta, red, err := decodeBundle(KindReduced, data, func(d *dec) *reduce.Reduced {
		red := decodeReduced(d, h)
		if red != nil {
			sol = decodeSolution(d, red.G, h.Fn.NumVars())
		}
		return red
	})
	if err != nil {
		return Meta{}, nil, nil, err
	}
	return meta, red, sol, nil
}

// decodeReduced reads a reduction bundle's quotient graph and its HPG
// bookkeeping, bounds-checking every index against h and the graph.
func decodeReduced(d *dec, h *trace.HPG) *reduce.Reduced {
	// inRange reports whether v indexes a table of n entries; out-of-range
	// values fail the decode.
	inRange := func(v int64, n int) bool {
		if v < 0 || v >= int64(n) {
			d.fail()
			return false
		}
		return true
	}
	g := decodeGraph(d, h.Fn.NumVars())
	if g == nil {
		return nil
	}
	red := &reduce.Reduced{H: h, G: g, Recording: map[cfg.EdgeID]bool{}}
	nClass := d.sliceLen()
	if d.err != nil || nClass != h.G.NumNodes() {
		d.fail()
		return nil
	}
	red.Class = make([]int, nClass)
	for i := range red.Class {
		c := d.i64()
		if !inRange(c, g.NumNodes()) { // one rHPG node per class
			return nil
		}
		red.Class[i] = int(c)
	}
	red.Members = make([][]cfg.NodeID, d.sliceLen())
	for i := range red.Members {
		ms := make([]cfg.NodeID, d.sliceLen())
		for j := range ms {
			v := d.i64()
			if !inRange(v, h.G.NumNodes()) {
				return nil
			}
			ms[j] = cfg.NodeID(v)
		}
		red.Members[i] = ms
	}
	red.Rep = make([]cfg.NodeID, d.sliceLen())
	for i := range red.Rep {
		v := d.i64()
		if !inRange(v, g.NumNodes()) {
			return nil
		}
		red.Rep[i] = cfg.NodeID(v)
	}
	red.OrigNode = make([]cfg.NodeID, g.NumNodes())
	for i := range red.OrigNode {
		v := d.i64()
		if !inRange(v, h.Fn.G.NumNodes()) {
			return nil
		}
		red.OrigNode[i] = cfg.NodeID(v)
	}
	red.OrigEdge = make([]cfg.EdgeID, g.NumEdges())
	for i := range red.OrigEdge {
		v := d.i64()
		if !inRange(v, h.Fn.G.NumEdges()) {
			return nil
		}
		red.OrigEdge[i] = cfg.EdgeID(v)
	}
	nRec := d.sliceLen()
	for i := 0; i < nRec; i++ {
		v := d.i64()
		if !inRange(v, g.NumEdges()) {
			return nil
		}
		red.Recording[cfg.EdgeID(v)] = true
	}
	red.Hot = make([]cfg.NodeID, d.sliceLen())
	for i := range red.Hot {
		v := d.i64()
		if !inRange(v, h.G.NumNodes()) {
			return nil
		}
		red.Hot[i] = cfg.NodeID(v)
	}
	nW := d.sliceLen()
	if d.err != nil || nW != h.G.NumNodes() {
		d.fail()
		return nil
	}
	red.Weights = make([]int64, nW)
	for i := range red.Weights {
		red.Weights[i] = d.i64()
	}
	return red
}

// --- Feasibility masks ----------------------------------------------------

// EncodeFeasible frames one graph tier's infeasible-edge mask (indexed
// by cfg.EdgeID). The graph itself is not stored: the decoder validates
// the mask's length against the live graph it re-attaches to.
func EncodeFeasible(meta Meta, mask []bool) []byte {
	return encodeBundle(KindFeasible, meta, func(e *enc) {
		e.u64(uint64(len(mask)))
		for _, b := range mask {
			e.bool(b)
		}
	})
}

// DecodeFeasible decodes a feasibility bundle against the tier's graph;
// a mask whose length disagrees with the graph's edge count is corrupt.
func DecodeFeasible(data []byte, g *cfg.Graph) (Meta, []bool, error) {
	return decodeBundle(KindFeasible, data, func(d *dec) []bool {
		n := d.sliceLen()
		if d.err != nil || n != g.NumEdges() {
			d.fail()
			return nil
		}
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = d.bool()
		}
		return mask
	})
}
