package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flopt"
	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/service/api"
	"flopt/internal/sim"
	"flopt/internal/workloads"
)

// serve-mixed parameters. The fixed phase offers the mix of
// examples/specs/steady.json, the repository's single-client workload
// spec: Poisson arrivals at 50 req/s weighted offsets 6 : compile 1 :
// simulate 1. Its offsets and compile shares are open loop at those
// rates; its simulate share (6.25 jobs/s) is more than two CPUs run, so
// simulates come from one client that submits a job and polls it to
// completion, as scripts/serve_smoke.sh does. The saturation phase and
// the ramp find how much the offsets path takes.
const (
	setupBoots    = 3                      // daemon boots timed per run
	chunkLen      = time.Second            // fixed-phase traffic is drawn per chunk
	satWindow     = time.Second            // one saturation window of offsets alone
	fixedMin      = 0.25                   // the fixed phase lasts at least this share of the run,
	fixedMax      = 0.5                    // and at most this one, ending once the job plan is done
	specRate      = 50.0                   // steady.json's rate_rps
	offsetsRate   = specRate * 6 / 8       // offsets requests/s in the fixed phase
	compileRate   = specRate * 1 / 8       // compiles/s in the fixed phase
	jobThink      = 50 * time.Millisecond  // longest pause between jobs of the job client
	rampGrow      = 1.4                    // ramp growth factor until a step fails
	rampStep      = time.Second            // traffic per ramp step
	rampResolve   = 1.04                   // stop bisecting once hi/lo is below this
	latencyLimit  = 25 * time.Millisecond  // offsets p99 limit (the service budget)
	drainLimit    = 2 * time.Second        // a step not drained by then has a growing backlog
	pollEvery     = 200 * time.Millisecond // job status poll interval, scripts/serve_smoke.sh's
	scrapeEvery   = time.Second            // /metrics scrape interval (traced runs)
	poolSize      = 256                    // distinct offsets requests, each checked against a layout walk
	queriesPerReq = 4                      // queries per offsets request, service.DefaultLoadOptions' Batch
	maxWalk       = 512                    // longest query walk, service.DefaultLoadOptions' Count
	jobsDeadline  = 90 * time.Second       // the open job and compiles must finish by then
	bootDeadline  = 30 * time.Second       // floptd must answer /healthz by then
	stopDeadline  = 30 * time.Second       // floptd must exit after SIGTERM by then
)

// daemon is one floptd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots floptd on a free port with dataDir as its journal
// directory and waits until /healthz answers.
func startDaemon(bin, dataDir, logPath string, hc *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(bootDeadline)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("floptd at %s not healthy after %v (log %s)", addr, bootDeadline, logPath)
}

// stop sends SIGTERM, waits for the exit and returns the daemon's peak
// RSS in MB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(stopDeadline):
		d.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("floptd ignored SIGTERM")
		}
	}
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rss, err
}

// cpuSeconds is the CPU time, user and system, the daemon has used so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15, in clock ticks (USER_HZ, 100 on Linux).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", d.cmd.Process.Pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", d.cmd.Process.Pid, len(f))
	}
	var ticks float64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", d.cmd.Process.Pid, err)
		}
		ticks += float64(n)
	}
	return ticks / 100, nil
}

// oracle is the in-process compile of one program, which the daemon's
// answers are checked against.
type oracle struct {
	name   string
	source string
	prog   *poly.Program
	res    *flopt.Result
	arrays []*poly.Array // sorted by name
}

func buildOracle(tr *tracer, parent int64, name, source string, cfg sim.Config) (*oracle, error) {
	o := &oracle{name: name, source: source}
	err := tr.do("lang.parse", parent, func(int64) error {
		var err error
		o.prog, err = flopt.Compile(name, source)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Step I and the plans it needs, timed as separate calls.
		var plans map[*poly.LoopNest]*parallel.Plan
		if err := tr.do("parallel.plan", parent, func(int64) error {
			plans, err = defaultPlans(o.prog, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		for _, a := range o.prog.Arrays {
			if err := tr.do("layout.step1", parent, func(int64) error {
				_, err := layout.SolveTransform(o.prog, a, plans)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := tr.do("layout.optimize", parent, func(int64) error {
		o.res, err = flopt.Optimize(o.prog, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	o.arrays = append(o.arrays, o.prog.Arrays...)
	sort.Slice(o.arrays, func(i, j int) bool { return o.arrays[i].Name < o.arrays[j].Name })
	return o, nil
}

// checkCompile compares a compile answer with the oracle.
func (o *oracle) checkCompile(resp *api.CompileResponse) error {
	opt, total := o.res.OptimizedCount()
	if resp.Optimized != opt || resp.TotalArrays != total || len(resp.Arrays) != len(o.arrays) {
		return fmt.Errorf("compile %s: %d/%d arrays optimized over %d, oracle %d/%d over %d",
			o.name, resp.Optimized, resp.TotalArrays, len(resp.Arrays), opt, total, len(o.arrays))
	}
	for _, a := range o.arrays {
		got, ok := resp.Arrays[a.Name]
		l := o.res.Layouts[a.Name]
		tr := o.res.Transforms[a.Name]
		want := api.ArrayInfo{Dims: a.Dims, Layout: l.Name(), FileElems: l.SizeElems(), Optimized: tr != nil && tr.Optimized()}
		if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("compile %s array %s: got %+v, oracle %+v", o.name, a.Name, got, want)
		}
	}
	return nil
}

// offsetsReq is one distinct offsets request of the pool.
type offsetsReq struct {
	prog  int
	array string
	body  []byte
	qs    []api.OffsetQuery
}

// makePool makes the distinct offsets requests: entry i targets program
// i mod 16 and each of its arrays in turn, with walks along a unit
// direction on every array dimension, so layouts with and without a
// closed form along that direction (Strider and walk paths) both get
// traffic. The seed draws only the walks' start points and lengths, so
// the mix of programs, arrays and directions, which decides what a
// request costs, is the same for every seed.
func makePool(seed int64, progs []*oracle) ([]offsetsReq, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	pool := make([]offsetsReq, poolSize)
	for i := range pool {
		pi := i % len(progs)
		a := progs[pi].arrays[i/len(progs)%len(progs[pi].arrays)]
		req := api.OffsetsRequest{Array: a.Name}
		for q := 0; q < queriesPerReq; q++ {
			d := (i*queriesPerReq + q) % a.Rank()
			start := make([]int64, a.Rank())
			for k := range start {
				start[k] = rng.Int63n(a.Dims[k])
			}
			dir := make([]int64, a.Rank())
			dir[d] = 1
			room := a.Dims[d] - start[d]
			count := 1 + rng.Int63n(min(room, maxWalk))
			req.Queries = append(req.Queries, api.OffsetQuery{Start: start, Dir: dir, Count: count})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i] = offsetsReq{prog: pi, array: a.Name, body: body, qs: req.Queries}
	}
	return pool, nil
}

// checkOffsets compares an offsets answer with a direct walk of the
// oracle's layout: every point's file offset, in order.
func (o *oracle) checkOffsets(r offsetsReq, body []byte) error {
	var resp api.OffsetsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("offsets %s/%s: %w", o.name, r.array, err)
	}
	if len(resp.Results) != len(r.qs) {
		return fmt.Errorf("offsets %s/%s: %d results for %d queries", o.name, r.array, len(resp.Results), len(r.qs))
	}
	l := o.res.Layouts[r.array]
	for qi, q := range r.qs {
		idx := linalg.Vec(append([]int64(nil), q.Start...))
		var k int64
		for _, s := range resp.Results[qi].Segs {
			for j := int64(0); j < s.Count; j, k = j+1, k+1 {
				if k >= q.Count {
					return fmt.Errorf("offsets %s/%s query %d: more than %d points", o.name, r.array, qi, q.Count)
				}
				if got, want := s.Start+j*s.Stride, l.Offset(idx); got != want {
					return fmt.Errorf("offsets %s/%s query %d point %d: %d, layout walk %d", o.name, r.array, qi, k, got, want)
				}
				for d := range idx {
					idx[d] += q.Dir[d]
				}
			}
		}
		if k != q.Count {
			return fmt.Errorf("offsets %s/%s query %d: %d points, want %d", o.name, r.array, qi, k, q.Count)
		}
	}
	return nil
}

// Event kinds of the load generator.
const (
	evOffsets = iota
	evCompile
	evSubmit
	evPoll
	evScrape
)

// event is one scheduled request. due is measured from the generator's
// start; step tags offsets events with their phase or ramp step.
type event struct {
	due  time.Duration
	kind int
	idx  int
	step int
	job  *jobState
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// compileEv is one scheduled compile: a program under a platform
// override no other compile of the run uses, or, when Cached, a program
// the set-up already compiled on the base platform.
type compileEv struct {
	Due    time.Duration      `json:"due"`
	Prog   int                `json:"prog"`
	Cfg    api.PlatformConfig `json:"cfg"`
	Cached bool               `json:"cached,omitempty"`
}

// jobState follows one simulate job from submission to its final state.
type jobState struct {
	prog      int
	optimized bool
	think     time.Duration // pause after the previous job before this one
	pair      *jobPair
	due       time.Duration
	sent      time.Time // when the submission was sent
	id        string
	done      time.Time // when a poll saw the job final
	report    *api.SimReport
	err       string
}

type jobPair struct{ def, opt *jobState }

// jobPlan is the job client's list: every program in Table 2 order, its
// default run then its optimized run, each after a seeded pause. The
// daemon's memory peak depends on which traces meet in its heap, so the
// programs, their order and their number are the same for every seed.
func jobPlan(seed int64, programs int) []*jobState {
	rng := rand.New(rand.NewSource(seed*99991 + 7))
	var jobs []*jobState
	for p := 0; p < programs; p++ {
		pair := &jobPair{}
		pair.def = &jobState{prog: p, pair: pair, think: time.Duration(rng.Int63n(int64(jobThink)))}
		pair.opt = &jobState{prog: p, optimized: true, pair: pair, think: time.Duration(rng.Int63n(int64(jobThink)))}
		jobs = append(jobs, pair.def, pair.opt)
	}
	return jobs
}

// chunk is one chunkLen of the fixed phase's open-loop traffic, with
// times relative to the chunk's start.
type chunk struct {
	Offsets  []time.Duration `json:"offsets"`
	Idx      []int           `json:"idx"`
	Compiles []compileEv     `json:"compiles"`
}

// chunker draws the fixed phase's traffic from the seed, one chunk at a
// time; the phase lasts as long as the job client needs, so the number
// of chunks is not known in advance.
type chunker struct {
	rng      *rand.Rand
	programs int
	used     map[[2]int]bool
	order    []int // a seeded permutation of the offsets pool, used in turn
}

func newChunker(seed int64, programs int) *chunker {
	return &chunker{rng: rand.New(rand.NewSource(seed*104729 + 3)), programs: programs, used: map[[2]int]bool{}}
}

func (c *chunker) next() chunk {
	var ch chunk
	ch.Offsets = poisson(c.rng, offsetsRate, 0, chunkLen)
	for range ch.Offsets {
		// Every pool entry is sent once before any is sent again, so the
		// phase's few hundred requests have the pool's mix.
		if len(c.order) == 0 {
			c.order = c.rng.Perm(poolSize)
		}
		ch.Idx = append(ch.Idx, c.order[0])
		c.order = c.order[1:]
	}
	// steady.json's compiles repeat one program, so they are cache hits;
	// half of these do the same, and half take a platform override no
	// other compile of the run uses, so the daemon builds a new layout.
	for _, t := range poisson(c.rng, compileRate, 0, chunkLen) {
		ev := compileEv{Due: t, Prog: c.rng.Intn(c.programs), Cached: c.rng.Intn(2) == 0}
		for !ev.Cached {
			ev.Cfg.IOCacheBlocks, ev.Cfg.StorageCacheBlocks = 32+c.rng.Intn(129), 64+c.rng.Intn(257)
			if k := [2]int{ev.Cfg.IOCacheBlocks, ev.Cfg.StorageCacheBlocks}; !c.used[k] {
				c.used[k] = true
				break
			}
		}
		ch.Compiles = append(ch.Compiles, ev)
	}
	return ch
}

// poisson returns arrival times at rate per second over [from, to).
func poisson(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if time.Duration(t) >= to {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// stepStat collects the offsets outcomes of one phase or ramp step.
type stepStat struct {
	n       int
	done    int
	errs    int
	queued  int // pushed, not yet dispatched
	latMS   []float64
	lateMS  []float64
	traced  bool // spans around its requests
	pending sync.WaitGroup
}

// generator is the open-loop load generator: one dispatcher releases
// events at their due time to at most nproc workers, each with its own
// connection. A request is timed from its due time, so a stall also
// delays the requests queued behind it.
type generator struct {
	hc    *http.Client
	base  string
	tr    *tracer
	start time.Time
	ids   []string // layout ID per program
	pool  []offsetsReq
	comps []compileEv // guarded by mu

	mu       sync.Mutex
	h        eventHeap
	steps    []*stepStat
	wake     chan struct{}
	stop     chan struct{}
	ans      *answers
	compAns  []compileAns
	jobs     []*jobState // the job client's plan, run one at a time
	nextJob  int         // index of the next job to submit
	openJobs int         // submitted, not yet final
	jobsStop bool        // no further submissions
	errs     []string
	scrapes  []map[string]float64
	submitUS []float64

	throttled, shed atomic.Int64 // 429 and 503 answers
}

type compileAns struct {
	idx  int
	ms   float64
	body []byte
	err  string
}

func (g *generator) now() time.Duration { return time.Since(g.start) }

func (g *generator) push(e *event) {
	g.mu.Lock()
	heap.Push(&g.h, e)
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

func (g *generator) fail(format string, args ...any) {
	g.mu.Lock()
	g.errs = append(g.errs, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

// dispatch releases events at their due times until stop is closed, then
// closes work.
func (g *generator) dispatch(work chan<- *event) {
	defer close(work)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		g.mu.Lock()
		var next *event
		wait := time.Hour
		if len(g.h) > 0 {
			if d := g.h[0].due - g.now(); d > 0 {
				wait = d
			} else {
				next = heap.Pop(&g.h).(*event)
				if next.kind == evOffsets {
					g.steps[next.step].queued--
				}
			}
		}
		g.mu.Unlock()
		if next != nil {
			select {
			case work <- next:
			case <-g.stop:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-g.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-g.stop:
			return
		}
	}
}

func (g *generator) worker(work <-chan *event, wg *sync.WaitGroup) {
	defer wg.Done()
	for e := range work {
		g.handle(e)
	}
}

// send sends one request and returns status and body.
func send(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// do sends one request, inside a span when tr is not nil, and returns
// status and body.
func (g *generator) do(tr *tracer, name string, method, url string, body []byte) (status int, out []byte, err error) {
	err = tr.do(name, 0, func(int64) error {
		var err error
		status, out, err = send(g.hc, method, url, body)
		return err
	})
	switch status {
	case http.StatusTooManyRequests:
		g.throttled.Add(1)
	case http.StatusServiceUnavailable:
		g.shed.Add(1)
	}
	return status, out, err
}

func (g *generator) handle(e *event) {
	started := g.now()
	switch e.kind {
	case evOffsets:
		r := g.pool[e.idx]
		g.mu.Lock()
		st := g.steps[e.step]
		g.mu.Unlock()
		var tr *tracer
		if st.traced {
			tr = g.tr
		}
		status, body, err := g.do(tr, "service.offsets", http.MethodPost,
			g.base+"/v1/layouts/"+g.ids[r.prog]+"/offsets", r.body)
		lat := g.now() - e.due
		g.mu.Lock()
		st.done++
		st.latMS = append(st.latMS, float64(lat)/1e6)
		st.lateMS = append(st.lateMS, float64(started-e.due)/1e6)
		bad := err != nil || status != http.StatusOK
		if !bad {
			if err := g.ans.add(e.idx, body); err != nil {
				bad = true
				g.errs = append(g.errs, err.Error())
			}
		} else {
			g.errs = append(g.errs, fmt.Sprintf("offsets: status %d err %v: %s", status, err, trim(body)))
		}
		if bad {
			st.errs++
		}
		g.mu.Unlock()
		st.pending.Done()
	case evCompile:
		g.mu.Lock()
		c := g.comps[e.idx]
		g.mu.Unlock()
		req := api.CompileRequest{Workload: workloads.Names()[c.Prog], Config: &c.Cfg}
		if c.Cached {
			req.Config = nil
		}
		body, err := json.Marshal(req)
		if err != nil {
			g.fail("compile request: %v", err)
			return
		}
		status, out, err := g.do(g.tr, "service.compile", http.MethodPost, g.base+"/v1/compile", body)
		ans := compileAns{idx: e.idx, ms: float64(g.now()-e.due) / 1e6, body: out}
		if err != nil || status != http.StatusOK {
			ans.err = fmt.Sprintf("compile: status %d err %v: %s", status, err, trim(out))
		}
		g.mu.Lock()
		g.compAns = append(g.compAns, ans)
		g.mu.Unlock()
	case evSubmit:
		j := e.job
		opt := j.optimized
		body, err := json.Marshal(api.SimulateRequest{LayoutID: g.ids[j.prog], Optimized: &opt})
		if err != nil {
			g.fail("simulate request: %v", err)
			return
		}
		t0 := time.Now()
		status, out, err := g.do(g.tr, "service.submit", http.MethodPost, g.base+"/v1/simulate", body)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		var jr api.JobResponse
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(out, &jr)
		}
		g.mu.Lock()
		j.sent = t0
		g.submitUS = append(g.submitUS, us)
		if err != nil || status != http.StatusAccepted || jr.JobID == "" {
			j.err = fmt.Sprintf("submit: status %d err %v: %s", status, err, trim(out))
			j.done = time.Now()
			g.finishJobLocked()
			g.mu.Unlock()
			return
		}
		j.id = jr.JobID
		g.mu.Unlock()
		g.push(&event{due: g.now() + pollEvery, kind: evPoll, job: j})
	case evPoll:
		j := e.job
		status, out, err := g.do(g.tr, "service.poll", http.MethodGet, g.base+"/v1/jobs/"+j.id, nil)
		var jr api.JobResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(out, &jr)
		}
		now := time.Now()
		g.mu.Lock()
		switch {
		case err != nil || status != http.StatusOK:
			j.err = fmt.Sprintf("poll %s: status %d err %v: %s", j.id, status, err, trim(out))
		case jr.State == api.JobDone && jr.Report != nil:
			j.report = jr.Report
		case jr.State == api.JobFailed || jr.State == api.JobDone:
			j.err = fmt.Sprintf("job %s %s: %s", j.id, jr.State, jr.Error)
		default:
			g.mu.Unlock()
			g.push(&event{due: g.now() + pollEvery, kind: evPoll, job: j})
			return
		}
		j.done = now
		g.finishJobLocked()
		g.mu.Unlock()
	case evScrape:
		m, err := scrape(g.hc, g.base)
		g.mu.Lock()
		if err != nil {
			g.errs = append(g.errs, err.Error())
		} else {
			g.scrapes = append(g.scrapes, m)
		}
		g.mu.Unlock()
	}
}

func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// offer schedules ch's traffic (offsets and compiles, times relative to
// at on the generator's clock) as one step and returns its statistics.
// traced puts spans around its offsets requests.
func (g *generator) offer(ch chunk, at time.Duration, traced bool) *stepStat {
	st := &stepStat{n: len(ch.Offsets), queued: len(ch.Offsets), traced: traced}
	g.mu.Lock()
	step := len(g.steps)
	g.steps = append(g.steps, st)
	st.pending.Add(len(ch.Offsets))
	for i, t := range ch.Offsets {
		heap.Push(&g.h, &event{due: at + t, kind: evOffsets, idx: ch.Idx[i], step: step})
	}
	for _, c := range ch.Compiles {
		heap.Push(&g.h, &event{due: at + c.Due, kind: evCompile, idx: len(g.comps)})
		g.comps = append(g.comps, c)
	}
	g.mu.Unlock()
	g.signal()
	return st
}

// await waits until every offsets request of steps is answered or until
// the generator's clock reaches limit. Past the limit the backlog is
// growing: the requests not yet sent are dropped and count as failed,
// and await waits for the ones in flight.
func (g *generator) await(steps []*stepStat, limit time.Duration) {
	for _, st := range steps {
		select {
		case <-g.waitStep(st):
		case <-time.After(limit - g.now()):
			for _, st := range steps {
				<-g.dropStep(st)
			}
			return
		}
	}
}

// rampChunk draws one ramp step: offsets alone at rate for dur.
func rampChunk(rng *rand.Rand, rate float64, dur time.Duration) chunk {
	ch := chunk{Offsets: poisson(rng, rate, 0, dur)}
	for range ch.Offsets {
		ch.Idx = append(ch.Idx, rng.Intn(poolSize))
	}
	return ch
}

// answers keeps the first answer to each offsets pool entry, which is
// checked against a layout walk at the end, and the hash of it, which
// every later answer must match.
type answers struct {
	mu    sync.Mutex
	first map[int][]byte
	hash  map[int]uint64
}

func newAnswers() *answers { return &answers{first: map[int][]byte{}, hash: map[int]uint64{}} }

// add records body as an answer to pool entry idx.
func (a *answers) add(idx int, body []byte) error {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.hash[idx]; !ok {
		a.hash[idx], a.first[idx] = sum, body
	} else if prev != sum {
		return fmt.Errorf("offsets pool entry %d answered differently than before", idx)
	}
	return nil
}

// saturation is one closed-loop offsets window.
type saturation struct {
	rps          float64   // requests answered per second
	perCPU       float64   // requests answered per CPU-second of the daemon
	latMS        []float64 // each answered request's latency
	sent, failed int
	errs         []string // the first few failures
}

// hammer keeps conns connections busy with offsets requests for dur,
// each sending the pool in turn and the next request as soon as an
// answer is in, and returns the requests answered per second and per
// second of CPU time the daemon used meanwhile, and their latencies.
func hammer(hc *http.Client, d *daemon, ids []string, pool []offsetsReq, ans *answers, conns int, dur time.Duration) saturation {
	var out saturation
	var mu sync.Mutex
	var wg sync.WaitGroup
	base := d.base
	cpu0, cerr := d.cpuSeconds()
	t0 := time.Now()
	stop := t0.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ; time.Now().Before(stop); k += conns {
				idx := k % len(pool)
				r := pool[idx]
				sent := time.Now()
				status, body, err := send(hc, http.MethodPost, base+"/v1/layouts/"+ids[r.prog]+"/offsets", r.body)
				ms := msSince(sent)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, trim(body))
				}
				if err == nil {
					err = ans.add(idx, body)
				}
				mu.Lock()
				out.sent++
				if err != nil {
					out.failed++
					if len(out.errs) < 10 {
						out.errs = append(out.errs, fmt.Sprintf("saturation offsets: %v", err))
					}
				} else {
					out.latMS = append(out.latMS, ms)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	cpu1, err := d.cpuSeconds()
	if cerr == nil {
		cerr = err
	}
	if cerr == nil && cpu1 <= cpu0 {
		cerr = errors.New("no daemon CPU time counted")
	}
	if cerr != nil {
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf("saturation: daemon CPU time: %v", cerr))
		return out
	}
	out.rps = float64(out.sent-out.failed) / wall
	out.perCPU = float64(out.sent-out.failed) / (cpu1 - cpu0)
	return out
}

func (g *generator) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// waitStep returns a channel closed once every request of st is answered
// or dropped.
func (g *generator) waitStep(st *stepStat) <-chan struct{} {
	done := make(chan struct{})
	go func() { st.pending.Wait(); close(done) }()
	return done
}

// dropStep removes a step's requests that were not yet dispatched, which
// count as failed, and returns waitStep's channel for the rest.
func (g *generator) dropStep(st *stepStat) <-chan struct{} {
	g.mu.Lock()
	kept := g.h[:0]
	for _, e := range g.h {
		if e.kind == evOffsets && g.steps[e.step] == st {
			st.pending.Done()
			st.queued--
			continue
		}
		kept = append(kept, e)
	}
	g.h = kept
	heap.Init(&g.h)
	g.mu.Unlock()
	return g.waitStep(st)
}

// submitNextLocked schedules the job client's next job, if any, after
// its pause. Caller holds g.mu.
func (g *generator) submitNextLocked() {
	if g.jobsStop || g.nextJob >= len(g.jobs) {
		return
	}
	j := g.jobs[g.nextJob]
	g.nextJob++
	g.openJobs++
	j.due = g.now() + j.think
	heap.Push(&g.h, &event{due: j.due, kind: evSubmit, job: j})
	g.signal()
}

// finishJobLocked records that the open job reached a final state and
// starts the next one. Caller holds g.mu.
func (g *generator) finishJobLocked() {
	g.openJobs--
	g.submitNextLocked()
}

// jobsDone reports whether the job client has run its whole plan.
func (g *generator) jobsDone() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.openJobs == 0 && g.nextJob >= len(g.jobs)
}

// drainBackground stops the job client and waits until no compile or job
// is queued or running.
func (g *generator) drainBackground(limit time.Duration) error {
	g.mu.Lock()
	g.jobsStop = true
	g.mu.Unlock()
	deadline := time.Now().Add(limit)
	for {
		g.mu.Lock()
		open := g.openJobs
		queued := 0
		for _, e := range g.h {
			if e.kind == evCompile || e.kind == evSubmit {
				queued++
			}
		}
		g.mu.Unlock()
		if open == 0 && queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs and %d queued requests unfinished after %v", open, queued, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// passes reports whether a step met the latency limit with every request
// answered correctly.
func (st *stepStat) passes() bool {
	return st.n > 0 && st.done == st.n && st.errs == 0 &&
		quantile(st.latMS, 99) <= float64(latencyLimit)/1e6
}

// scrape fetches /metrics and parses it.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseMetrics(string(b))
}

// runServe measures serve-mixed.
func runServe(bin, outDir string, seed int64, budget time.Duration, traced bool, spansPath string) (*outcome, error) {
	o := &outcome{values: map[string]float64{}, detail: map[string]any{}}
	nproc := runtime.NumCPU()
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc,
			DisableCompression: true},
	}
	defer hc.CloseIdleConnections()
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("serve-mixed-seed%d", seed))
	}
	cfg := sim.DefaultConfig()
	names := workloads.Names()
	progs := make([]*oracle, len(names))
	for i, n := range names {
		w, _ := workloads.ByName(n)
		var err error
		if progs[i], err = buildOracle(tr, 0, n, w.Source, cfg); err != nil {
			return nil, err
		}
	}

	pool, err := makePool(seed, progs)
	if err != nil {
		return nil, err
	}
	ans := newAnswers()

	// Set-up: boot floptd on an empty data dir and compile the programs,
	// several times; the last daemon serves the measured phase.
	var setups []float64
	var d *daemon
	var ids []string
	runDir := filepath.Join(outDir, fmt.Sprintf("serve-seed%d", seed))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	for boot := 0; boot < setupBoots; boot++ {
		dir := filepath.Join(runDir, fmt.Sprintf("data%d", boot))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		dd, err := startDaemon(bin, dir, filepath.Join(runDir, fmt.Sprintf("floptd%d.log", boot)), hc)
		if err != nil {
			return nil, err
		}
		got, err := compileAll(hc, dd.base, progs)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			dd.stop()
			return nil, err
		}
		if ids != nil && fmt.Sprint(ids) != fmt.Sprint(got) {
			o.errs = append(o.errs, fmt.Sprintf("layout IDs differ between boots: %v vs %v", ids, got))
		}
		ids = got
		if boot < setupBoots-1 {
			if _, err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	jw, err := watchJobs(filepath.Join(runDir, fmt.Sprintf("data%d", setupBoots-1), "jobs.wal"))
	if err != nil {
		return nil, err
	}
	watching := true
	defer func() {
		if watching {
			jw.close()
		}
	}()

	before, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}

	g := &generator{hc: hc, base: d.base, tr: tr, ids: ids, pool: pool, jobs: jobPlan(seed, len(progs)),
		wake: make(chan struct{}, 1), stop: make(chan struct{}),
		ans: ans}
	g.start = time.Now()
	if traced {
		for t := time.Duration(0); t < budget; t += scrapeEvery {
			heap.Push(&g.h, &event{due: t, kind: evScrape})
		}
	}
	work := make(chan *event)
	var wg sync.WaitGroup
	wg.Add(nproc)
	for i := 0; i < nproc; i++ {
		go g.worker(work, &wg)
	}
	go g.dispatch(work)
	shutdown := sync.OnceFunc(func() {
		close(g.stop)
		wg.Wait()
	})
	defer shutdown()

	// Saturation windows of offsets alone. One window warms the daemon
	// and the connections up and sets where the ramp starts; after the
	// fixed phase, windows alternate with ramp steps until the run ends.
	// The host's speed changes within a run, so the reported rate is the
	// median of many short windows spread over the run's second part.
	var sats []saturation
	var satRPS, satCPU, satMS []float64
	warm := hammer(hc, d, ids, pool, ans, nproc, satWindow)
	sats = append(sats, warm)
	saturate := func() {
		st := hammer(hc, d, ids, pool, ans, nproc, satWindow)
		sats, satRPS, satCPU = append(sats, st), append(satRPS, st.rps), append(satCPU, st.perCPU)
		satMS = append(satMS, st.latMS...)
	}

	// Fixed-rate phase: open-loop offsets and compiles while the job client
	// runs its plan, one job at a time. Chunk i's traffic is due from
	// phase start + i·chunkLen whatever the backlog, so a stall delays the
	// requests behind it. A traced run turns spans on for every second
	// chunk's offsets and compares the two halves.
	minFixed := time.Duration(float64(budget) * fixedMin)
	maxFixed := time.Duration(float64(budget) * fixedMax)
	chunks := newChunker(seed, len(progs))
	g.mu.Lock()
	g.submitNextLocked()
	g.mu.Unlock()
	var fixed []*stepStat
	phaseStart := g.now()
	for i := 0; ; i++ {
		at := phaseStart + time.Duration(i)*chunkLen
		fixed = append(fixed, g.offer(chunks.next(), at, traced && i%2 == 1))
		time.Sleep(at + chunkLen - g.now())
		if el := g.now() - phaseStart; (el >= minFixed && g.jobsDone()) || el >= maxFixed {
			break
		}
	}
	fixedEnd := g.now()
	// Let the fixed phase's compiles and jobs finish, so the ramp measures
	// the offsets path alone: with jobs beside it, a ramp step passed or
	// failed on whether a job's CPU and GC stall landed in it.
	if err := g.drainBackground(jobsDeadline); err != nil {
		o.errs = append(o.errs, err.Error())
	}
	g.await(fixed, fixedEnd+drainLimit)
	var fixedMS, fixedLateMS, untracedMS []float64
	for _, st := range fixed {
		if traced && !st.traced {
			untracedMS = append(untracedMS, st.latMS...)
		} else {
			fixedMS = append(fixedMS, st.latMS...)
			fixedLateMS = append(fixedLateMS, st.lateMS...)
		}
	}

	// Ramp, offsets alone: from half the warm-up's rate, grow the offered
	// rate until a step fails, then bisect. A failed step is repeated
	// once, so a lone stall does not end the ramp.
	rng := rand.New(rand.NewSource(seed*15485863 + 5))
	var lo, hi float64
	type stepOut struct {
		Rate  float64 `json:"rate"`
		P99   float64 `json:"p99_ms"`
		Pass  bool    `json:"pass"`
		N     int     `json:"n"`
		Done  int     `json:"done"`
		Late  float64 `json:"lateness_p99_ms"`
		Error int     `json:"errors"`
	}
	var ramp []stepOut
	step := func(r float64) bool {
		st := g.offer(rampChunk(rng, r, rampStep), g.now(), traced)
		g.await([]*stepStat{st}, g.now()+rampStep+drainLimit)
		ramp = append(ramp, stepOut{Rate: r, P99: quantile(st.latMS, 99), Pass: st.passes(), N: st.n, Done: st.done,
			Late: quantile(st.lateMS, 99), Error: st.errs})
		return st.passes()
	}
	for len(sats) < 2 || g.now()+satWindow <= budget {
		saturate()
		if (hi > 0 && lo > 0 && hi/lo < rampResolve) || g.now()+rampStep+satWindow > budget {
			continue
		}
		r := max(warm.rps, 200) / 2
		switch {
		case hi > 0 && lo > 0:
			r = math.Sqrt(lo * hi)
		case lo > 0:
			r = lo * rampGrow
		case hi > 0:
			r = hi / rampGrow
		}
		if step(r) || step(r) {
			lo = r
		} else {
			hi = r
		}
	}

	shutdown()
	after, err := scrape(hc, d.base)
	if err != nil {
		return nil, err
	}
	watching = false
	if err := jw.close(); err != nil {
		o.errs = append(o.errs, err.Error())
	}
	rss, err := d.stop()
	stopped = true
	if err != nil {
		return nil, fmt.Errorf("floptd stop: %w", err)
	}

	// Checks: every distinct offsets answer against the layout walk, every
	// compile against the oracle, every job pair against the tables.
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	o.errs = append(o.errs, g.errs...)
	var attempted, failed int
	for _, st := range g.steps {
		attempted += st.n
		failed += st.n - st.done + st.errs
	}
	for _, st := range sats {
		attempted += st.sent
		failed += st.failed
		o.errs = append(o.errs, st.errs...)
	}
	for i, body := range ans.first {
		r := pool[i]
		if err := progs[r.prog].checkOffsets(r, body); err != nil {
			o.errs = append(o.errs, err.Error())
			failed++
		}
	}
	var compileMS []float64
	for _, a := range g.compAns {
		attempted++
		c := g.comps[a.idx]
		err := errors.New(a.err)
		switch {
		case a.err != "":
		case c.Cached:
			err = checkCached(progs[c.Prog], ids[c.Prog], a.body)
		default:
			err = checkUncached(progs[c.Prog], c.Cfg, cfg, a.body)
		}
		if err != nil {
			o.errs = append(o.errs, err.Error())
			failed++
			continue
		}
		compileMS = append(compileMS, a.ms)
	}
	var jobMS, waitMS, runMS []float64
	tally := newSimTally()
	var ioPct, stPct float64
	for _, j := range g.jobs[:g.nextJob] {
		attempted++
		if j.err != "" || j.report == nil {
			o.errs = append(o.errs, fmt.Sprintf("job %s (%s optimized=%v): %s", j.id, names[j.prog], j.optimized, j.err))
			failed++
			continue
		}
		// A job counts from its submission to its done record in the
		// daemon's journal; it waits from the accept record to the start
		// record and runs from there to the done record.
		accepted, ok1 := jw.at(j.id, "accept")
		started, ok2 := jw.at(j.id, "start")
		done, ok3 := jw.at(j.id, "done")
		if !ok1 || !ok2 || !ok3 {
			o.errs = append(o.errs, fmt.Sprintf("job %s: journal records seen: accept %v, start %v, done %v", j.id, ok1, ok2, ok3))
			failed++
			continue
		}
		jobMS = append(jobMS, msBetween(j.sent, done))
		waitMS = append(waitMS, msBetween(accepted, started))
		runMS = append(runMS, msBetween(started, done))
		tally.accesses["lru"] += j.report.Accesses
		tally.diskReads += j.report.DiskReads
		tally.execUS += j.report.ExecTimeUS
		ioPct += j.report.IOMissPct
		stPct += j.report.StorageMissPct
		if j.optimized {
			if err := checkJobPair(ref, names[j.prog], j.pair); err != nil {
				o.errs = append(o.errs, err.Error())
				failed++
			}
		}
	}
	o.attempted, o.failed = attempted, failed

	lat := summarize(fixedMS)
	o.values["setup_s"] = median(setups)
	o.values["peak_rss_mb"] = rss
	if len(satMS) > 0 {
		o.values["p50_ms"] = median(satMS)
	}
	o.values["throughput_per_cpu_s"] = median(satCPU)
	o.detail["setup_s"] = setups
	o.detail["fixed_phase_s"] = (fixedEnd - phaseStart).Seconds()
	o.detail["saturation_rps"] = satRPS
	o.detail["saturation_per_cpu_s"] = satCPU
	o.detail["saturation_ms"] = summarize(satMS)
	o.detail["offsets_fixed_rate"] = offsetsRate
	o.detail["offsets_ms"] = lat
	o.detail["offsets_lateness_ms"] = summarize(fixedLateMS)
	o.detail["max_rps"] = lo
	o.detail["max_rps_saturated"] = hi > 0
	o.detail["ramp"] = ramp
	o.detail["job_ms"] = summarize(jobMS)
	o.detail["job_wait_ms"] = summarize(waitMS)
	o.detail["job_run_ms"] = summarize(runMS)
	o.detail["compile_ms"] = summarize(compileMS)
	o.detail["submit_us"] = summarize(g.submitUS)
	o.detail["nproc_connections"] = nproc
	if !traced {
		return o, nil
	}

	spans := tr.snapshot()
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	st, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	for k, v := range layerMetrics(st, tally) {
		o.values[k] = v
	}
	if n := len(jobMS); n > 0 {
		o.values["storage.io_miss_ratio"] = ioPct / 100 / float64(n)
		o.values["storage.st_miss_ratio"] = stPct / 100 / float64(n)
	}
	o.values["layout.optimized_ratio"] = optimizedRatio(progs)
	o.values["service.offsets_us"] = st["service.offsets"].meanSelfUS()
	o.values["service.submit_us"] = st["service.submit"].meanSelfUS()
	if len(waitMS) > 0 {
		o.values["service.job_wait_ms"] = median(waitMS)
	}
	o.values["layer_self_ratio"] = layerSelfRatio(st, g.now().Nanoseconds())
	o.values["trace_overhead_ratio"] = median(fixedMS) / median(untracedMS)
	delete(o.values, "sim.shards.lru")
	if v, ok := family(after, "floptd_sim_shards"); ok {
		o.values["sim.shards.lru"] = v
	}
	serviceDeltas(o.values, before, after, g.scrapes)
	o.values["service.throttled"] = float64(g.throttled.Load())
	o.values["service.shed"] = float64(g.shed.Load())
	return o, nil
}

func optimizedRatio(progs []*oracle) float64 {
	var o, n int
	for _, p := range progs {
		a, b := p.res.OptimizedCount()
		o, n = o+a, n+b
	}
	return fraction(int64(o), int64(n))
}

// compileAll compiles every program on the default platform and returns
// the layout IDs, checking each answer against the oracle.
func compileAll(hc *http.Client, base string, progs []*oracle) ([]string, error) {
	ids := make([]string, len(progs))
	for i, p := range progs {
		body, err := json.Marshal(api.CompileRequest{Workload: p.name})
		if err != nil {
			return nil, err
		}
		resp, err := hc.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("compile %s: status %d: %s", p.name, resp.StatusCode, trim(out))
		}
		var cr api.CompileResponse
		if err := json.Unmarshal(out, &cr); err != nil {
			return nil, err
		}
		if err := p.checkCompile(&cr); err != nil {
			return nil, err
		}
		ids[i] = cr.LayoutID
	}
	return ids, nil
}

// checkUncached checks an answer of the compile stream: not served from
// the cache (its platform override is new) and equal to an in-process
// compile under the same platform.
func checkUncached(p *oracle, over api.PlatformConfig, base sim.Config, body []byte) error {
	var cr api.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("compile %s: %w", p.name, err)
	}
	if cr.Cached {
		return fmt.Errorf("compile %s under %+v answered from the cache", p.name, over)
	}
	q, err := buildOracle(nil, 0, p.name, p.source, over.Apply(base))
	if err != nil {
		return err
	}
	return q.checkCompile(&cr)
}

// checkCached checks a repeat compile: answered from the cache under the
// set-up's layout ID, with the same layouts.
func checkCached(p *oracle, id string, body []byte) error {
	var cr api.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("compile %s: %w", p.name, err)
	}
	if !cr.Cached || cr.LayoutID != id {
		return fmt.Errorf("repeat compile %s: cached=%v id %s, want a cache hit on %s", p.name, cr.Cached, cr.LayoutID, id)
	}
	return p.checkCompile(&cr)
}

// checkJobPair compares a finished default/optimized job pair with the
// program's Table 2 row and Fig 7(a) value.
func checkJobPair(ref map[string]*section, name string, p *jobPair) error {
	if p.opt == nil || p.def.report == nil || p.opt.report == nil {
		return nil // an unpaired last job, or a failed half already counted
	}
	d, o := p.def.report, p.opt.report
	t2, f7 := ref[titleTable2], ref[titleFig7a]
	for _, err := range []error{
		t2.checkCell(name, "io-miss%", "%.1f", d.IOMissPct),
		t2.checkCell(name, "st-miss%", "%.1f", d.StorageMissPct),
		t2.checkCell(name, "exec(s)", "%.2f", float64(d.ExecTimeUS)/1e6),
		f7.checkCell(name, "normalized", "%.3f", ratio(float64(o.ExecTimeUS), float64(d.ExecTimeUS))),
	} {
		if err != nil {
			return fmt.Errorf("job pair %s: %w", name, err)
		}
	}
	return nil
}

// serviceDeltas derives the daemon-side service.* figures from the
// /metrics scrapes before and after the measured phase (and the periodic
// ones for the queue-depth maximum). A figure whose family is missing is
// left out. Throttled and shed requests are counted by the generator
// instead, from the 429 and 503 answers it gets.
func serviceDeltas(m, before, after map[string]float64, during []map[string]float64) {
	for _, k := range []string{"service.offsets_strided_ratio", "service.walked_elems", "service.compile_builds",
		"service.compile_hit_ratio", "service.queue_depth_max"} {
		delete(m, k)
	}
	// Counters appear on first use, so one missing before the phase
	// started at zero; one missing after it is absent.
	delta := func(f string) (float64, bool) {
		a, ok := family(after, f)
		b, _ := family(before, f)
		return a - b, ok
	}
	if s, ok := delta("floptd_offsets_strided_total"); ok {
		if q, ok := delta("floptd_offsets_queries_total"); ok && q > 0 {
			m["service.offsets_strided_ratio"] = s / q
		}
	}
	if v, ok := delta("floptd_offsets_walked_elems_total"); ok {
		m["service.walked_elems"] = v
	}
	if v, ok := delta("floptd_compile_builds_total"); ok {
		m["service.compile_builds"] = v
	}
	if h, ok := delta("floptd_compile_cache_hits_total"); ok {
		if r, ok := delta("floptd_compile_requests_total"); ok && r > 0 {
			m["service.compile_hit_ratio"] = h / r
		}
	}
	seen := false
	var qmax float64
	for _, s := range append(during, after) {
		if v, ok := family(s, "floptd_queue_depth"); ok {
			seen = true
			qmax = max(qmax, v)
		}
	}
	if seen {
		m["service.queue_depth_max"] = qmax
	}
}
