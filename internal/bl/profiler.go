package bl

import (
	"errors"
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/interp"
)

// Tracker carves the interpreter's edge trace into Ball-Larus paths
// directly: traversing a recording edge closes the current path and starts
// the next one. It maintains a stack of activation states so recursive
// functions profile correctly.
type Tracker struct {
	g     *cfg.Graph
	prof  *Profile
	stack []trackState
}

type trackState struct {
	started bool
	cur     []cfg.EdgeID
}

// NewTracker returns a tracker for one function.
func NewTracker(fn *cfg.Func, R map[cfg.EdgeID]bool) *Tracker {
	return &Tracker{g: fn.G, prof: NewProfile(fn.Name, R)}
}

// Enter begins a new activation.
func (t *Tracker) Enter() { t.stack = append(t.stack, trackState{}) }

// Edge consumes one traversed edge of the innermost activation.
func (t *Tracker) Edge(e cfg.EdgeID) {
	s := &t.stack[len(t.stack)-1]
	if !s.started {
		// The first edge of an activation leaves Entry, so it is a
		// recording edge; it plays the role of the • placeholder.
		s.started = true
		s.cur = s.cur[:0]
		return
	}
	if t.prof.R[e] {
		edges := make([]cfg.EdgeID, len(s.cur)+1)
		copy(edges, s.cur)
		edges[len(s.cur)] = e
		t.prof.Add(Path{Edges: edges}, 1)
		s.cur = s.cur[:0]
		return
	}
	s.cur = append(s.cur, e)
}

// Exit ends the innermost activation.
func (t *Tracker) Exit() { t.stack = t.stack[:len(t.stack)-1] }

// Profile returns the accumulated profile.
func (t *Tracker) Profile() *Profile { return t.prof }

// instrumented is the MICRO '96 profiling scheme for one function: the
// path numbering, a packed per-edge table and one counter per (start
// vertex, path id) — exactly what the instrumentation the paper's PP
// pass inserts would compute at run time. Activations keep their own
// accumulators (instState) and advance them with step.
type instrumented struct {
	num    *Numbering
	name   string
	edges  []numEdge
	counts map[pathKey]int64
}

// numEdge is what one traversal of an edge needs, packed per edge ID: its
// increment, its target and whether it records.
type numEdge struct {
	val int64
	to  cfg.NodeID
	rec bool
}

type pathKey struct {
	start cfg.NodeID
	id    int64
}

// instState is one activation's accumulator. start is cfg.NoNode until
// the activation's first edge, which leaves Entry and so records.
type instState struct {
	start cfg.NodeID
	acc   int64
}

// newInstrumented numbers fn's paths. R must contain the minimal
// recording-edge set (see RecordingEdges).
func newInstrumented(fn *cfg.Func, R map[cfg.EdgeID]bool) (*instrumented, error) {
	num, err := NewNumbering(fn.G, R)
	if err != nil {
		return nil, err
	}
	edges := make([]numEdge, fn.G.NumEdges())
	for i, e := range fn.G.Edges {
		edges[i] = numEdge{val: num.Val[i], to: e.To, rec: R[e.ID]}
	}
	return &instrumented{num: num, name: fn.Name, edges: edges, counts: map[pathKey]int64{}}, nil
}

// step advances activation s over edge e: it adds the edge's increment,
// and on a recording edge counts the finished path and starts the next.
func (ip *instrumented) step(s *instState, e cfg.EdgeID) {
	ne := &ip.edges[e]
	if !ne.rec {
		s.acc += ne.val
		return
	}
	if s.start != cfg.NoNode {
		ip.counts[pathKey{s.start, s.acc + ne.val}]++
	}
	s.start, s.acc = ne.to, 0
}

// profile regenerates each distinct path behind the compact counters
// once.
func (ip *instrumented) profile() (*Profile, error) {
	prof := NewProfile(ip.name, ip.num.R)
	for k, n := range ip.counts {
		p, err := ip.num.Regenerate(k.start, k.id)
		if err != nil {
			return nil, fmt.Errorf("bl: %s: %w", ip.name, err)
		}
		prof.Add(p, n)
	}
	return prof, nil
}

// funcProfiler profiles one function: through its path numbering, or
// through a Tracker when the numbering overflows.
type funcProfiler struct {
	ip *instrumented
	t  *Tracker
}

func (fp *funcProfiler) profile() (*Profile, error) {
	if fp.ip == nil {
		return fp.t.Profile(), nil
	}
	return fp.ip.profile()
}

// activation is one live call of a function profiled by fp; s is its
// accumulator when fp numbers paths.
type activation struct {
	fp *funcProfiler
	s  instState
}

// ProfileProgram runs prog under the interpreter, counts every function's
// Ball-Larus paths by number, and returns the program profile alongside
// the run result. The recording-edge set of each function is the
// minimal one. A function whose path count
// overflows the numbering is profiled by a Tracker instead. The hooks
// keep one stack of activations, so no map is read per edge.
func ProfileProgram(prog *cfg.Program, opt interp.Options) (*ProgramProfile, *interp.Result, error) {
	profilers := make(map[*cfg.Func]*funcProfiler, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		R := RecordingEdges(fn.G)
		ip, err := newInstrumented(fn, R)
		switch {
		case err == nil:
			profilers[fn] = &funcProfiler{ip: ip}
		case errors.Is(err, ErrTooManyPaths):
			profilers[fn] = &funcProfiler{t: NewTracker(fn, R)}
		default:
			return nil, nil, err
		}
	}
	var stack []activation
	userEnter, userEdge, userExit := opt.OnEnter, opt.OnEdge, opt.OnExit
	opt.OnEnter = func(fn *cfg.Func) {
		fp := profilers[fn]
		if fp.ip == nil {
			fp.t.Enter()
		}
		stack = append(stack, activation{fp: fp, s: instState{start: cfg.NoNode}})
		if userEnter != nil {
			userEnter(fn)
		}
	}
	opt.OnEdge = func(fn *cfg.Func, e cfg.EdgeID) {
		a := &stack[len(stack)-1]
		if ip := a.fp.ip; ip != nil {
			ip.step(&a.s, e)
		} else {
			a.fp.t.Edge(e)
		}
		if userEdge != nil {
			userEdge(fn, e)
		}
	}
	opt.OnExit = func(fn *cfg.Func) {
		if fp := stack[len(stack)-1].fp; fp.ip == nil {
			fp.t.Exit()
		}
		stack = stack[:len(stack)-1]
		if userExit != nil {
			userExit(fn)
		}
	}
	res, err := interp.Run(prog, opt)
	if err != nil {
		return nil, res, err
	}
	pp := NewProgramProfile()
	for name, fn := range prog.Funcs {
		prof, err := profilers[fn].profile()
		if err != nil {
			return nil, res, err
		}
		pp.Funcs[name] = prof
	}
	return pp, res, nil
}

// TrackProgram is ProfileProgram's reference: it runs prog with a Tracker
// on every function, looked up by name on every edge, and so shares
// neither the numbering nor the activation stack with ProfileProgram.
// Tests hold ProfileProgram's profiles equal to its. Hooks set in opt are
// not called.
func TrackProgram(prog *cfg.Program, opt interp.Options) (*ProgramProfile, *interp.Result, error) {
	trackers := map[string]*Tracker{}
	for name, fn := range prog.Funcs {
		trackers[name] = NewTracker(fn, RecordingEdges(fn.G))
	}
	opt.OnEnter = func(fn *cfg.Func) { trackers[fn.Name].Enter() }
	opt.OnEdge = func(fn *cfg.Func, e cfg.EdgeID) { trackers[fn.Name].Edge(e) }
	opt.OnExit = func(fn *cfg.Func) { trackers[fn.Name].Exit() }
	res, err := interp.Run(prog, opt)
	if err != nil {
		return nil, res, err
	}
	pp := NewProgramProfile()
	for name, t := range trackers {
		pp.Funcs[name] = t.Profile()
	}
	return pp, res, nil
}
