package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/profile/stream"
	"pathflow/internal/progen"
	"pathflow/internal/serve"
)

const (
	// serveClients is the closed loop's client count. One client sends
	// one request at a time, so the CPU time the process spends between
	// a request and its reply is that request's cost.
	serveClients   = 1
	serveSetupReps = 5
	// A calibration runs before every serveCalEvery-th request, and each
	// block of serveCalWindow requests is scaled by the calibrations
	// taken in it.
	serveCalEvery  = 50
	serveCalWindow = 200
	// serveRSSRequests ends the resident-set sampling: the server keeps
	// every finished job, so its footprint grows with requests served,
	// and peak_rss_mb is taken over set-up and this many requests so
	// that it does not depend on how fast the host ran the load.
	serveRSSRequests = 2000
	// serveMemory bounds the server's in-memory artifact tier. The
	// `pathflow serve` default is 512M, but live analyses after ingested
	// batches add artifacts fast enough to reach any bound within a run,
	// and at 512M the process passes 1.3 GB resident within seconds.
	// A quarter of it keeps the workload at its memory bound, evicting,
	// at a footprint a shared host can afford.
	serveMemory = 128 << 20
)

// serveGrid is the CA×CR grid of warm analyses; every point is analyzed
// during set-up, so these requests read the engine cache.
var serveGrid = []serve.OptionsSpec{
	{CA: 0.9, CR: 0.9, Clients: "all"}, {CA: 0.9, CR: 0.95, Clients: "all"},
	{CA: 0.97, CR: 0.9, Clients: "all"}, {CA: 0.97, CR: 0.95, Clients: "all"},
}

// livePoint is where live and inline-source analyses run: the paper's
// recommended point with every client.
var livePoint = serve.OptionsSpec{CA: 0.97, CR: 0.95, Clients: "all"}

// badBodies are malformed analyze requests; each must come back as a
// structured 400.
var badBodies = []string{
	`{"program":`,
	`{"progam":"compress"}`,
	`{"program":"compress","options":{"ca":1.5,"cr":0.95}}`,
	`{"program":"compress","options":{"ca":0.97,"cr":0.95,"kernel":"simd"}}`,
	`{"program":"compress","source":"func main() { print(1); }"}`,
	`{"program":"compress","options":{"ca":0.97,"cr":0.95,"clients":"everything"}}`,
}

// Request classes of the mix.
const (
	classHit    = "hit"
	classIngest = "ingest"
	classLive   = "live"
	classSource = "source"
	classBad    = "bad"
)

var serveClasses = []string{classHit, classIngest, classLive, classSource, classBad}

// classDeck is one cycle of the request mix: 50% warm analyses, 20%
// profile ingestion, 20% live analyses, 8% inline-source edits, 2%
// malformed bodies. Each client deals the deck in a seeded order, so
// every seed runs the same proportions and only the order varies.
var classDeck = func() []string {
	var d []string
	for class, n := range map[string]int{classHit: 25, classIngest: 10, classLive: 10, classSource: 4, classBad: 1} {
		for i := 0; i < n; i++ {
			d = append(d, class)
		}
	}
	sort.Strings(d)
	return d
}()

// sourceChain is the length of a chain of inline-source edits: each
// edit changes one literal of the previous version, and every
// sourceChain-th starts again from the base program. A chain without
// end would walk the program away from the base, so what a source
// request costs would depend on how far a seed's walk had drifted.
const sourceChain = 8

// flipEvery is how often (in ingest batches) a client moves weight onto
// a cold path, enough to change the function's hot set.
const flipEvery = 8

// liveServer is an in-process server listening on loopback.
type liveServer struct {
	base   string
	dir    string
	cancel context.CancelFunc
	done   chan error
	hc     *http.Client
}

func startServer(tmp string) (*liveServer, error) {
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{MaxJobs: 2, MemoryMaxBytes: serveMemory, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{
		base: "http://" + l.Addr().String(), dir: dir, cancel: cancel,
		done: make(chan error, 1),
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients + 2, DisableCompression: true,
		}},
	}
	go func() { ls.done <- srv.Serve(ctx, l) }()
	return ls, nil
}

// stop drains the server, waits for it to exit and removes its cache
// directory.
func (ls *liveServer) stop() error {
	ls.hc.CloseIdleConnections()
	ls.cancel()
	err := <-ls.done
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

func (ls *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobReply is the part of a finished job's body the benchmark reads.
type jobReply struct {
	State   string           `json:"state"`
	Error   *serve.ErrorBody `json:"error"`
	Result  json.RawMessage  `json:"result"`
	Metrics *struct {
		StageRuns      int `json:"stage_runs"`
		StageCacheHits int `json:"stage_cache_hits"`
	} `json:"metrics"`
}

// analyzed decodes a wait=1 analyze reply and returns the result's
// digest; any non-200 or unfinished job is an error.
func analyzed(status int, body []byte) (*jobReply, uint64, error) {
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	var jr jobReply
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, 0, fmt.Errorf("decoding reply: %w", err)
	}
	if jr.State != string(serve.JobDone) || len(jr.Result) == 0 {
		msg := ""
		if jr.Error != nil {
			msg = jr.Error.Error
		}
		return nil, 0, fmt.Errorf("job %s: %s", jr.State, msg)
	}
	h := fnv.New64a()
	h.Write(jr.Result) //nolint:errcheck // hash writes never fail
	return &jr, h.Sum64(), nil
}

func analyzeBody(req serve.AnalyzeRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // marshalling a plain struct cannot fail
	}
	return b
}

// learnedPath is a path key of one function with its training count.
type learnedPath struct {
	key   string
	count int64
}

// serveState is one set-up of serve-live.
type serveState struct {
	ls *liveServer
	// paths[program][func] lists the executed paths GET /v1/profiles
	// reported, hottest first.
	paths map[string]map[string][]learnedPath
	// sources[client] is the client's validated base progen program.
	sources [serveClients]string
}

// setupServe starts a server with a write-through cache directory and
// warms it: every program at every grid point, one live analysis per
// program, the path keys of every function, and one inline-source
// analysis per client.
func setupServe(tmp string) (*serveState, error) {
	ls, err := startServer(tmp)
	if err != nil {
		return nil, err
	}
	st := &serveState{ls: ls, paths: map[string]map[string][]learnedPath{}}
	fail := func(err error) (*serveState, error) {
		ls.stop() //nolint:errcheck // reporting the set-up error instead
		return nil, err
	}
	for _, b := range bench.All() {
		for _, pt := range append(append([]serve.OptionsSpec(nil), serveGrid...), livePoint) {
			o := pt
			status, body, err := ls.do("POST", "/v1/analyze?wait=1", analyzeBody(serve.AnalyzeRequest{
				TargetSpec: serve.TargetSpec{Program: b.Name}, Options: &o}))
			if err == nil {
				_, _, err = analyzed(status, body)
			}
			if err != nil {
				return fail(fmt.Errorf("warming %s: %w", b.Name, err))
			}
		}
		status, body, err := ls.do("GET", "/v1/profiles?program="+b.Name, nil)
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("profiles of %s: status %d: %v", b.Name, status, err))
		}
		var state serve.StreamStateResponse
		if err := json.Unmarshal(body, &state); err != nil {
			return fail(fmt.Errorf("profiles of %s: %w", b.Name, err))
		}
		fp := map[string][]learnedPath{}
		for _, f := range state.Funcs {
			for _, p := range f.Paths {
				fp[f.Func] = append(fp[f.Func], learnedPath{key: p.Path, count: p.Count})
			}
		}
		st.paths[b.Name] = fp
		o := livePoint
		status, body, err = ls.do("POST", "/v1/analyze?wait=1", analyzeBody(serve.AnalyzeRequest{
			TargetSpec: serve.TargetSpec{Program: b.Name}, Options: &o, Live: true}))
		if err == nil {
			_, _, err = analyzed(status, body)
		}
		if err != nil {
			return fail(fmt.Errorf("live warm-up of %s: %w", b.Name, err))
		}
	}
	// The base programs are the same for every seed: a generated
	// program's size sets what its requests cost, so a seed varies only
	// the sequence of edits.
	rng := splitmix64(0x5eed5eed)
	for c := range st.sources {
		src, err := baseSource(&rng)
		if err != nil {
			return fail(err)
		}
		st.sources[c] = src
		o := livePoint
		status, body, err := ls.do("POST", "/v1/analyze?wait=1", analyzeBody(serve.AnalyzeRequest{
			TargetSpec: serve.TargetSpec{Source: src}, Options: &o}))
		if err == nil {
			_, _, err = analyzed(status, body)
		}
		if err != nil {
			return fail(fmt.Errorf("source warm-up: %w", err))
		}
	}
	return st, nil
}

// baseSource draws progen programs until one compiles and completes its
// training run under the server's inline-source defaults.
func baseSource(rng *splitmix64) (string, error) {
	for i := 0; i < 100; i++ {
		src := progen.Generate(progen.DefaultConfig(rng.next()))
		prog, err := lang.Compile(src)
		if err != nil {
			continue
		}
		// The server's inline-source training defaults: no args, input
		// seed 1, 4096 input values.
		io := interp.Options{Input: &interp.SliceInput{Values: bench.InputValues(1, 4096)}}
		if _, _, err := bl.ProfileProgram(prog, io); err == nil {
			return src, nil
		}
	}
	return "", errors.New("no generated program completed its training run")
}

// loopLine matches the lines of a generated program that set up, bound
// or step a loop: progen reserves the counters c0, c1, … for loops.
var loopLine = regexp.MustCompile(`\bc[0-9]+\b|\bwhile\b`)

var literal = regexp.MustCompile(`\b[0-9]+\b`)

// editSource changes one integer literal of src — one block's edit. It
// never touches a loop's lines, so every edited program still
// terminates within the loop bounds progen generated.
func editSource(src string, rng *splitmix64) string {
	var spots [][2]int
	off := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		if !loopLine.MatchString(line) {
			for _, m := range literal.FindAllStringIndex(line, -1) {
				spots = append(spots, [2]int{off + m[0], off + m[1]})
			}
		}
		off += len(line)
	}
	if len(spots) == 0 {
		return src + "\n"
	}
	sp := spots[rng.intn(len(spots))]
	v, _ := strconv.Atoi(src[sp[0]:sp[1]])
	return src[:sp[0]] + strconv.Itoa((v+1+rng.intn(97))%100) + src[sp[1]:]
}

// clientLog is what one client did, for the metrics and the checks.
type clientLog struct {
	attempted, failed int
	errs              []string
	lat               map[string][]float64 // class → ms
	done              []doneReq
	analyses          int
	liveRuns          int
	liveComputed      int
	hits              map[string]map[uint64]int // program|point → digest → replies
	sources           map[string]uint64         // source → digest of its reply
	batches           map[string][][]byte       // program → ingest bodies sent, in order
	lastLive          map[string]liveRecord
}

// doneReq is one completed request: the CPU time the process spent on
// it and its wall-clock latency, in milliseconds, the calibration window
// it ran in, and for an analysis its program.
type doneReq struct {
	cpuMS, ms float64
	window    int
	analysis  string
}

// liveRecord is a program's last live analysis: how many of its ingest
// batches preceded it and the digest of the reply.
type liveRecord struct {
	batches int
	digest  uint64
}

func (cl *clientLog) fail(format string, args ...any) {
	cl.failed++
	if len(cl.errs) < 10 {
		cl.errs = append(cl.errs, fmt.Sprintf(format, args...))
	}
}

// serveClient runs one closed-loop client over its own programs until
// the deadline.
type serveClient struct {
	id    int
	rng   splitmix64
	st    *serveState
	progs []string
	src   string
	// classes and order are the dealt decks of request classes and of
	// the client's programs; ingests and edits count the batches and
	// source edits built so far.
	classes, order []string
	ingests, edits int
	seq            map[string]uint64 // program/func → last sequence number sent
	totals         map[string]int64  // program/func → running path-count total
	log            *clientLog
	reqSeq         *atomic.Int64
	tr             *tracer
	// sampled is called once the run has sent serveRSSRequests requests.
	sampled func()
	cal     *calibrator
}

func (c *serveClient) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		class, prog := c.deal()
		var method, path string
		var body []byte
		var point int
		switch class {
		case classHit:
			point = c.rng.intn(len(serveGrid))
			o := serveGrid[point]
			method, path = "POST", "/v1/analyze?wait=1"
			body = analyzeBody(serve.AnalyzeRequest{TargetSpec: serve.TargetSpec{Program: prog}, Options: &o})
		case classLive:
			o := livePoint
			method, path = "POST", "/v1/analyze?wait=1"
			body = analyzeBody(serve.AnalyzeRequest{TargetSpec: serve.TargetSpec{Program: prog}, Options: &o, Live: true})
		case classIngest:
			method, path = "POST", "/v1/profiles"
			body = c.batch(prog)
		case classSource:
			if c.edits%sourceChain == 0 {
				c.src = c.st.sources[c.id]
			}
			c.edits++
			c.src = editSource(c.src, &c.rng)
			o := livePoint
			method, path = "POST", "/v1/analyze?wait=1"
			body = analyzeBody(serve.AnalyzeRequest{TargetSpec: serve.TargetSpec{Source: c.src}, Options: &o})
		case classBad:
			method, path = "POST", "/v1/analyze?wait=1"
			body = []byte(badBodies[c.rng.intn(len(badBodies))])
		}
		if n := c.log.attempted; n%serveCalEvery == 0 {
			if n%serveCalWindow == 0 {
				c.cal.window()
			}
			c.cal.sample()
		}
		id := int(c.reqSeq.Add(1))
		c0, t0 := cpuTime(), time.Now()
		status, resp, err := c.st.ls.do(method, path, body)
		t1, c1 := time.Now(), cpuTime()
		c.tr.add("serve."+class, t0, t1, -1, id)
		ms, cpuMS := toMS(t1.Sub(t0)), toMS(c1-c0)
		cl := c.log
		cl.attempted++
		if id == serveRSSRequests && c.sampled != nil {
			c.sampled()
		}
		cl.lat[class] = append(cl.lat[class], ms)
		cl.done = append(cl.done, doneReq{cpuMS: cpuMS, ms: ms, window: len(c.cal.windows) - 1})
		if err != nil {
			cl.fail("%s request %d: %v", class, id, err)
			continue
		}
		switch class {
		case classHit, classLive, classSource:
			jr, digest, err := analyzed(status, resp)
			if err != nil {
				cl.fail("%s request %d: %v", class, id, err)
				continue
			}
			cl.analyses++
			if class != classSource {
				cl.done[len(cl.done)-1].analysis = prog
			}
			switch class {
			case classHit:
				key := prog + "|" + strconv.Itoa(point)
				if cl.hits[key] == nil {
					cl.hits[key] = map[uint64]int{}
				}
				cl.hits[key][digest]++
			case classLive:
				cl.liveRuns++
				if jr.Metrics != nil {
					cl.liveComputed += jr.Metrics.StageRuns - jr.Metrics.StageCacheHits
				}
				cl.lastLive[prog] = liveRecord{batches: len(cl.batches[prog]), digest: digest}
			case classSource:
				cl.sources[c.src] = digest
			}
		case classIngest:
			if status != http.StatusOK {
				cl.fail("ingest request %d: status %d: %.200s", id, status, resp)
				continue
			}
			var ir serve.IngestResponse
			if err := json.Unmarshal(resp, &ir); err != nil || ir.Applied == 0 || ir.Dropped != 0 {
				cl.fail("ingest request %d: applied %d dropped %d (%v)", id, ir.Applied, ir.Dropped, err)
				continue
			}
			cl.batches[prog] = append(cl.batches[prog], body)
		case classBad:
			var eb serve.ErrorBody
			if status != http.StatusBadRequest || json.Unmarshal(resp, &eb) != nil || eb.Error == "" {
				cl.fail("malformed request %d: status %d, body %.200s", id, status, resp)
			}
		}
	}
}

// deal returns the next request class and program, reshuffling each
// deck when it runs out.
func (c *serveClient) deal() (class, prog string) {
	if len(c.classes) == 0 {
		c.classes = append(c.classes, classDeck...)
		shuffle(&c.rng, c.classes)
	}
	if len(c.order) == 0 {
		c.order = append(c.order, c.progs...)
		shuffle(&c.rng, c.order)
	}
	class, c.classes = c.classes[0], c.classes[1:]
	prog, c.order = c.order[0], c.order[1:]
	return class, prog
}

// batch builds the next profile-delta batch for prog: counter deltas on
// one to three executed functions over their learned path keys. Every
// flipEvery-th batch ages the profile by one decay epoch and moves a
// quarter of each function's running total onto one of its colder
// paths, which is enough to change its hot set.
func (c *serveClient) batch(prog string) []byte {
	fp := c.st.paths[prog]
	funcs := make([]string, 0, len(fp))
	for f := range fp {
		funcs = append(funcs, f)
	}
	sort.Strings(funcs)
	shuffle(&c.rng, funcs)
	n := 1 + c.rng.intn(3)
	if n > len(funcs) {
		n = len(funcs)
	}
	req := serve.IngestRequest{TargetSpec: serve.TargetSpec{Program: prog}, Agent: fmt.Sprintf("client-%d", c.id)}
	c.ingests++
	flip := c.ingests%flipEvery == 0
	// A flip first advances the decay epoch, so the weight earlier flips
	// moved fades instead of every flipped path piling into the hot set.
	req.AdvanceEpoch = flip
	for _, f := range funcs[:n] {
		paths := fp[f]
		k := prog + "/" + f
		if _, ok := c.totals[k]; !ok {
			for _, p := range paths {
				c.totals[k] += p.count
			}
		}
		c.seq[k]++
		fd := stream.FuncDelta{Func: f, Seq: c.seq[k]}
		if flip && len(paths) > 1 && c.totals[k] < 1<<50 {
			// A cold path (from the colder half) jumps to a quarter
			// of the function's weight.
			p := paths[len(paths)/2+c.rng.intn(len(paths)-len(paths)/2)]
			cnt := c.totals[k]/4 + 1
			fd.Paths = append(fd.Paths, stream.PathDelta{Path: p.key, Count: cnt})
			c.totals[k] += cnt
		} else {
			for i, m := 0, 1+c.rng.intn(4); i < m; i++ {
				p := paths[c.rng.intn(len(paths))]
				cnt := int64(1 + c.rng.intn(1000))
				fd.Paths = append(fd.Paths, stream.PathDelta{Path: p.key, Count: cnt})
				c.totals[k] += cnt
			}
		}
		req.Funcs = append(req.Funcs, fd)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // marshalling a plain struct cannot fail
	}
	return b
}

// runServeLive runs the serve-live workload. It runs the whole process
// on one scheduler thread (GOMAXPROCS 1): with one client and one
// request at a time the server has no parallel work to give a second
// core, and an idle second core only adds the runtime's spinning
// between requests to their CPU time, by amounts that depend on what
// else the host runs.
func runServeLive(cfg runConfig, tr *tracer) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	tmp := filepath.Join(filepath.Dir(cfg.out), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cal := newCalibrator(serveSensitivity)
	var st *serveState
	setup, err := timeSetup(serveSetupReps, cal, func() error {
		if st != nil {
			if err := st.ls.stop(); err != nil {
				return fmt.Errorf("stopping a set-up server: %w", err)
			}
		}
		var err error
		st, err = setupServe(tmp)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			st.ls.stop() //nolint:errcheck // already failing; the first error is reported
		}
	}()

	out := newOutcome()
	out.values["setup_s"] = median(setup.scaled)
	out.notes = append(out.notes, setup.note())
	var before map[string]float64
	if tr != nil {
		if before, err = scrape(st.ls); err != nil {
			return nil, err
		}
	}

	// Each client owns a disjoint set of programs, so every program's
	// request sequence is deterministic for the seed.
	var reqSeq atomic.Int64
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		c := &serveClient{
			id: i, rng: splitmix64(cfg.seed*0x100 + uint64(i) + 1), st: st, src: st.sources[i],
			seq: map[string]uint64{}, totals: map[string]int64{}, reqSeq: &reqSeq, tr: tr,
			sampled: func() { cfg.rss.peak() }, cal: cal,
			log: &clientLog{lat: map[string][]float64{},
				hits: map[string]map[uint64]int{}, sources: map[string]uint64{},
				batches: map[string][][]byte{}, lastLive: map[string]liveRecord{}},
		}
		for j, b := range bench.All() {
			if j%serveClients == i {
				c.progs = append(c.progs, b.Name)
			}
		}
		clients[i] = c
	}
	rt0 := readRuntime()
	c0, start := cpuTime(), time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	wall, loadCPU := time.Since(start).Seconds(), (cpuTime() - c0).Seconds()
	var rt rtAccum
	rt.add(rt0, readRuntime())
	var after map[string]float64
	if tr != nil {
		if after, err = scrape(st.ls); err != nil {
			return nil, err
		}
	}

	var all []float64
	analyses, liveRuns, liveComputed := 0, 0, 0
	byClass := map[string][]float64{}
	for _, c := range clients {
		cl := c.log
		out.attempted += cl.attempted
		out.failed += cl.failed
		out.errs = append(out.errs, cl.errs...)
		analyses += cl.analyses
		liveRuns += cl.liveRuns
		liveComputed += cl.liveComputed
		for class, l := range cl.lat {
			all = append(all, l...)
			byClass[class] = append(byClass[class], l...)
		}
	}

	// Peak memory is that of set-up and the first serveRSSRequests
	// requests (or the whole load, if it sent fewer); the checks below
	// run on cold servers of their own once the measured one has
	// stopped.
	cfg.rss.peak()
	stopped = true
	if err := st.ls.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	debug.FreeOSMemory()
	constPct, err := checkServe(clients, out)
	if err != nil {
		return nil, err
	}

	progCPU := map[string][]float64{}
	var cpuMS, rawMS, wallMS []float64
	for _, c := range clients {
		for _, d := range c.log.done {
			ms := d.cpuMS * cal.scale(d.window)
			cpuMS = append(cpuMS, ms)
			rawMS = append(rawMS, d.cpuMS)
			wallMS = append(wallMS, d.ms)
			if d.analysis != "" {
				progCPU[d.analysis] = append(progCPU[d.analysis], ms)
			}
		}
	}
	meds := make([]float64, 0, len(progCPU))
	for _, b := range bench.All() {
		if l := progCPU[b.Name]; len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	loadScaled := sum(cpuMS) / 1000
	sort.Float64s(cpuMS)
	sort.Float64s(wallMS)
	p99, q := tail(cpuMS, 0.99)
	wallP99, _ := tail(wallMS, 0.99)
	v := out.values
	v["job_cpu_ms.geomean"] = geomean(meds)
	v["const_dyn_pct"] = constPct
	v["req_per_cpu_s"] = float64(len(cpuMS)) / loadScaled
	v["req_cpu_ms.p50"] = median(cpuMS)
	v["req_cpu_ms.p99"] = p99
	var counts []string
	for _, class := range serveClasses {
		counts = append(counts, fmt.Sprintf("%s=%d", class, len(byClass[class])))
	}
	out.notes = append(out.notes, fmt.Sprintf("# serve-live seed %d: %d requests (%s); req_cpu_ms.p99 taken at p%.1f (ten samples beyond); peak_rss_mb over set-up and the first %d requests",
		cfg.seed, len(all), strings.Join(counts, " "), 100*q, min(len(all), serveRSSRequests)))
	out.notes = append(out.notes, cal.note())
	out.notes = append(out.notes, fmt.Sprintf("# unscaled: request CPU ms p50 %.3f; wall clock: %.1f req/s (calibration included), req ms p50 %.3f p%.1f %.3f, CPU per wall second of load %.2f",
		median(rawMS), float64(len(all))/wall, median(wallMS), 100*q, wallP99, loadCPU/wall))

	if tr != nil {
		serveLayers(out, tr.snapshot(), before, after, analyses, len(all), liveRuns, liveComputed)
		rt.setOn(out, len(all))
		v["tracing.ops_per_cpu_s"] = float64(len(all)) / loadScaled
	}
	return out, nil
}

// checkServe verifies every reply against a cold server, outside the
// timed region: warm and inline-source results must equal a cold
// in-process analysis at the same point, and each program's last live
// result must equal a cold server fed the same batches. It returns the
// Figure 9 precision of the served results at the live point.
func checkServe(clients []*serveClient, out *outcome) (float64, error) {
	for _, c := range clients {
		if err := checkClient(c.log, out); err != nil {
			return 0, err
		}
	}
	return servedPrecision()
}

// coldDigest submits one analysis to an in-process handler and returns
// the digest of its result.
func coldDigest(h http.Handler, body []byte) (uint64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze?wait=1", bytes.NewReader(body)))
	_, d, err := analyzed(rec.Code, rec.Body.Bytes())
	return d, err
}

// checkClient checks one client's replies on a cold server of its own,
// so the memo of inline sources and the finished jobs are released
// client by client.
func checkClient(cl *clientLog, out *outcome) error {
	cold, err := serve.New(serve.Config{NoCache: true, Workers: 1})
	if err != nil {
		return err
	}
	defer cold.Jobs().Shutdown()
	h := cold.Handler()
	keys := make([]string, 0, len(cl.hits))
	for k := range cl.hits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		prog, pt, _ := strings.Cut(k, "|")
		i, _ := strconv.Atoi(pt)
		o := serveGrid[i]
		want, err := coldDigest(h, analyzeBody(serve.AnalyzeRequest{TargetSpec: serve.TargetSpec{Program: prog}, Options: &o}))
		if err != nil {
			return fmt.Errorf("cold analysis of %s: %w", k, err)
		}
		for d, n := range cl.hits[k] {
			if d != want {
				for j := 0; j < n; j++ {
					out.fail("%s: warm result differs from a cold analysis", k)
				}
			}
		}
	}
	for src, d := range cl.sources {
		o := livePoint
		want, err := coldDigest(h, analyzeBody(serve.AnalyzeRequest{TargetSpec: serve.TargetSpec{Source: src}, Options: &o}))
		if err != nil {
			return fmt.Errorf("cold analysis of an inline source: %w", err)
		}
		if d != want {
			out.fail("inline source: result differs from a cold analysis")
		}
	}
	for prog, rec := range cl.lastLive {
		if err := checkLive(prog, cl.batches[prog][:rec.batches], rec.digest); err != nil {
			out.fail("%s: %v", prog, err)
		}
	}
	return nil
}

// checkLive feeds a fresh cold server the batches a program's last live
// analysis saw and compares its live result.
func checkLive(prog string, batches [][]byte, digest uint64) error {
	cold, err := serve.New(serve.Config{NoCache: true, Workers: 1})
	if err != nil {
		return err
	}
	defer cold.Jobs().Shutdown()
	h := cold.Handler()
	for i, b := range batches {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/profiles", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replaying batch %d on a cold server: status %d", i, rec.Code)
		}
	}
	o := livePoint
	want, err := coldDigest(h, analyzeBody(serve.AnalyzeRequest{
		TargetSpec: serve.TargetSpec{Program: prog}, Options: &o, Live: true}))
	if err != nil {
		return fmt.Errorf("cold live analysis: %w", err)
	}
	if want != digest {
		return fmt.Errorf("last live result (after %d batches) differs from a cold server fed the same batches", len(batches))
	}
	return nil
}

// servedPrecision is const_dyn_pct of the analyses served at the live
// point on the training profile: a cold in-process analysis of each
// program (equal to the served one, as checked above), weighted by its
// ref run.
func servedPrecision() (float64, error) {
	o, err := livePointOptions()
	if err != nil {
		return 0, err
	}
	var dyn, nonlocal float64
	for _, b := range bench.All() {
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return 0, err
		}
		train, _, err := bl.ProfileProgram(prog, b.TrainOptions())
		if err != nil {
			return 0, err
		}
		ref, _, err := bl.ProfileProgram(prog, b.RefOptions())
		if err != nil {
			return 0, err
		}
		res, err := engine.New(engine.Config{Workers: 1}).AnalyzeProgram(context.Background(), prog, train, o)
		if err != nil {
			return 0, err
		}
		f, err := evaluate(prog, train, ref, res)
		if err != nil {
			return 0, err
		}
		dyn += float64(f.TotalDyn)
		nonlocal += float64(f.NonlocalDyn)
	}
	return 100 * nonlocal / dyn, nil
}

func livePointOptions() (engine.Options, error) {
	cs, err := engine.ParseClients(livePoint.Clients)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{CA: livePoint.CA, CR: livePoint.CR, Clients: cs}, nil
}

// scrape reads the server's /metrics counters into a flat map keyed by
// "name{labels}".
func scrape(ls *liveServer) (map[string]float64, error) {
	status, body, err := ls.do("GET", "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// stageLayers maps each engine stage to the per-layer time metric it
// feeds on serve-live and to its layer in the share report.
var stageLayers = map[engine.StageName]struct{ metric, layer string }{
	engine.StageBaseline:  {"constprop.cfg_ms", "constprop"},
	engine.StageAnalyze:   {"constprop.hpg_ms", "constprop"},
	engine.StageSelect:    {"profile.select_ms", "profile"},
	engine.StageTranslate: {"profile.translate_ms", "profile"},
	engine.StageAutomaton: {"automaton.build_ms", "automaton"},
	engine.StageTrace:     {"trace.build_ms", "trace"},
	engine.StageReduce:    {"reduce.ms", "reduce"},
	engine.StageFeasible:  {"feasible.detect_ms", "feasible"},
	engine.StageLiveness:  {"liveness.ms", "liveness"},
	engine.StageAvailExpr: {"availexpr.ms", "availexpr"},
}

// serveLayers turns a traced serve-live run's request spans and the
// /metrics scrapes taken before and after it into per-layer metrics.
// Stage times are per analysis request; other counts per request.
func serveLayers(out *outcome, spans []span, before, after map[string]float64, analyses, requests, liveRuns, liveComputed int) {
	v := out.values
	delta := func(k string) float64 { return after[k] - before[k] }
	byClass := map[string][]float64{}
	var latency float64
	for _, s := range spans {
		ms := float64(s.dur()) / float64(time.Millisecond)
		class := strings.TrimPrefix(s.Name, "serve.")
		byClass[class] = append(byClass[class], ms)
		latency += ms
	}
	for _, class := range serveClasses {
		if l := byClass[class]; len(l) > 0 {
			v["serve.req_ms."+class+".p50"] = median(l)
		}
	}
	perAnalysis := func(x float64) float64 {
		if analyses == 0 {
			return 0
		}
		return x / float64(analyses)
	}
	var hits, computed, stageMS float64
	for _, s := range engine.StageOrder {
		sum := delta(fmt.Sprintf("pathflow_stage_seconds_sum{stage=%q}", s)) * 1000
		cnt := delta(fmt.Sprintf("pathflow_stage_seconds_count{stage=%q}", s))
		hits += delta(fmt.Sprintf("pathflow_stage_cache_hits_total{stage=%q}", s))
		computed += cnt
		if sl, ok := stageLayers[s]; ok {
			v[sl.metric] = perAnalysis(sum)
			stageMS += sum
			if requests > 0 {
				out.layers[sl.layer] += sum / float64(requests)
			}
		}
		if s == engine.StageFeasible {
			v["feasible.detect_calls"] = perAnalysis(cnt)
		}
	}
	if hits+computed > 0 {
		v["engine.cache_hit_ratio"] = hits / (hits + computed)
	}
	if in := delta("pathflow_profile_ingest_total"); in > 0 {
		v["stream.requalify_ratio"] = delta("pathflow_drift_requalify_total") / in
	}
	if liveRuns > 0 {
		v["stream.live_computed_stages"] = float64(liveComputed) / float64(liveRuns)
	}
	if requests > 0 {
		v["diskcache.writes"] = delta("pathflow_diskcache_writes_total") / float64(requests)
		v["diskcache.write_mb"] = delta("pathflow_diskcache_bytes") / float64(requests) / (1 << 20)
		// Time a request spends outside the pipeline's stages: HTTP,
		// JSON, the job manager, cache lookups and result building.
		out.layers["serve"] = (latency - stageMS) / float64(requests)
	}
}
