package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"flopt"
	"flopt/internal/exp"
	"flopt/internal/layout"
	"flopt/internal/parallel"
	"flopt/internal/poly"
	"flopt/internal/sim"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
	"flopt/internal/workloads"
)

// childResult is what one batch pass, run in its own process, reports to
// the parent on its last stdout line.
type childResult struct {
	WallNS    int64              `json:"wall_ns"`
	Sims      int                `json:"sims"`
	SimMS     []float64          `json:"sim_ms,omitempty"`
	CompileMS []float64          `json:"compile_ms,omitempty"`
	Tables    string             `json:"tables,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Attempted int                `json:"attempted"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// programOrder is the seeded permutation of the 16 programs one
// compile-simulate pass walks.
func programOrder(seed int64, pass int) []string {
	names := workloads.Names()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	out := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// runChild is the body of a child process: it prints "ready" (the
// parent's set-up clock stops there, so set-up is process start and
// package initialization), runs one pass of the workload and prints the
// result as JSON.
func runChild(workload string, seed int64, pass int, traced bool, spansPath string) error {
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-pass%d", workload, seed, pass))
	}
	var res *childResult
	var err error
	switch workload {
	case "probe":
		fmt.Println("ready")
		res = &childResult{}
	case "paper-tables":
		fmt.Println("ready")
		if traced {
			res, err = paperTablesTraced(tr)
		} else {
			res, err = paperTables()
		}
	case "compile-simulate":
		shards := 0
		if traced {
			// Learn the shard count flopt.Run picks by default from one
			// metrics-enabled run, so the decomposed path below runs
			// the simulator the way the public path does.
			if shards, err = probeShards(); err != nil {
				return err
			}
		}
		fmt.Println("ready")
		var ref map[string]*section
		if ref, err = loadReference(); err != nil {
			return err
		}
		res, err = compileSimulate(ref, programOrder(seed, pass), tr, shards)
	default:
		return fmt.Errorf("unknown child workload %q", workload)
	}
	if err != nil {
		return err
	}
	if traced {
		spans := tr.snapshot()
		st, err := selfTimes(spans)
		if err != nil {
			return err
		}
		res.Layers["layer_self_ratio"] = layerSelfRatio(st, res.WallNS)
		if err := writeSpans(spansPath, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// paperTables regenerates the four checked tables through exp.Runner
// with cell fan-out at nproc and an empty prep cache.
func paperTables() (*childResult, error) {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
	r := exp.NewRunner()
	r.Parallel = runtime.NumCPU()
	t0 := time.Now()
	var out string
	sims, err := countSims(r, func() error {
		for _, b := range []func(context.Context, *exp.Runner, sim.Config) (*exp.Table, error){
			exp.Table2, exp.Table3, exp.Fig7a, exp.Fig7h,
		} {
			t, err := b(ctx, r, cfg)
			if err != nil {
				return err
			}
			out += t.Render() + "\n"
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &childResult{WallNS: time.Since(t0).Nanoseconds(), Sims: sims, Tables: out, Attempted: 1}, nil
}

// countSims runs f with r's progress output on, which is one stdout line
// per simulation r runs, and returns how many lines f's calls printed.
func countSims(r *exp.Runner, f func() error) (int, error) {
	rd, wr, err := os.Pipe()
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	lines := make(chan int)
	go func() {
		n := 0
		for sc := bufio.NewScanner(rd); sc.Scan(); {
			n++
		}
		lines <- n
	}()
	stdout := os.Stdout
	os.Stdout, r.Verbose = wr, true
	err = f()
	os.Stdout, r.Verbose = stdout, false
	wr.Close()
	return <-lines, err
}

// cellPrep is one (app, scheme) preparation of the traced paper-tables
// pass: layouts chosen and traces generated once, shared by its cells.
type cellPrep struct {
	once   sync.Once
	ft     *trace.FileTable
	traces []*trace.NestTrace
	err    error
}

// cellProg is one app's parsed program, shared by its two schemes.
type cellProg struct {
	once sync.Once
	p    *poly.Program
	err  error
}

// paperTablesTraced re-runs the cells of the four tables through the
// layer functions (trace.GenerateWorkers, sim.NewMachine, RunContext)
// with a span around each call, and renders the same tables from the
// reports so the parent can check they equal the untraced ones.
func paperTablesTraced(tr *tracer) (*childResult, error) {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
	par := runtime.NumCPU()
	apps := workloads.Names()
	tally := newSimTally()
	var mu sync.Mutex // guards tally
	progs := map[string]*cellProg{}
	preps := map[string]*cellPrep{}
	for _, a := range apps {
		progs[a] = &cellProg{}
		for _, s := range []string{"default", "inter"} {
			preps[a+"/"+s] = &cellPrep{}
		}
	}

	// program parses app once; the first caller's span records it.
	program := func(app string, parent int64) (*poly.Program, error) {
		cp := progs[app]
		cp.once.Do(func() {
			w, _ := workloads.ByName(app)
			cp.err = tr.do("lang.parse", parent, func(int64) error {
				var err error
				cp.p, err = w.Program()
				return err
			})
		})
		return cp.p, cp.err
	}

	// build chooses the layouts of (app, scheme) and generates its traces.
	build := func(c *cellPrep, app, scheme string, parent int64) error {
		p, err := program(app, parent)
		if err != nil {
			return err
		}
		var layouts map[string]layout.Layout
		var plans map[*poly.LoopNest]*parallel.Plan
		if scheme == "default" {
			layouts = layout.DefaultLayouts(p)
			err = tr.do("parallel.plan", parent, func(int64) error {
				var err error
				plans, err = defaultPlans(p, cfg)
				return err
			})
		} else {
			err = tr.do("layout.optimize", parent, func(int64) error {
				res, err := flopt.Optimize(p, cfg)
				if err != nil {
					return err
				}
				layouts, plans = res.Layouts, res.Plans
				o, n := res.OptimizedCount()
				mu.Lock()
				tally.optimized += o
				tally.arrays += n
				mu.Unlock()
				return nil
			})
			for _, a := range p.Arrays {
				if err != nil {
					break
				}
				// Step I again on its own, to time it; Optimize makes the
				// same call internally.
				err = tr.do("layout.step1", parent, func(int64) error {
					_, err := layout.SolveTransform(p, a, plans)
					return err
				})
			}
		}
		if err != nil {
			return err
		}
		err = tr.do("trace.generate", parent, func(int64) error {
			var err error
			if c.ft, err = trace.NewFileTable(p, layouts); err != nil {
				return err
			}
			c.traces, err = trace.GenerateWorkers(p, plans, c.ft, cfg.BlockElems, cfg.Threads(), par)
			return err
		})
		if err == nil {
			mu.Lock()
			tally.addTraces(c.traces)
			mu.Unlock()
		}
		return err
	}

	prepare := func(app, scheme string, parent int64) (*cellPrep, error) {
		c := preps[app+"/"+scheme]
		c.once.Do(func() { c.err = build(c, app, scheme, parent) })
		return c, c.err
	}

	cell := func(app, scheme, policy string, parent int64) (*sim.Report, error) {
		var rep *sim.Report
		err := tr.do("exp.cell", parent, func(id int64) error {
			c, err := prepare(app, scheme, id)
			if err != nil {
				return err
			}
			pc := cfg
			pc.Policy = policy
			var hints []cache.RangeHint
			if policy == "karma" {
				tr.do("sim.hints", id, func(int64) error {
					hints = sim.GenerateHints(pc, c.ft, c.traces)
					return nil
				})
			}
			var runNS int64
			err = tr.do("sim.run."+policy, id, func(int64) error {
				t0 := time.Now()
				rep, err = simulate(ctx, pc, hints, c.ft, c.traces, 0)
				runNS = time.Since(t0).Nanoseconds()
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s/%s: %w", app, scheme, policy, err)
			}
			mu.Lock()
			tally.addReport(policy, rep, runNS, 1)
			mu.Unlock()
			return nil
		})
		return rep, err
	}

	t0 := time.Now()
	root := tr.begin("pass", 0)
	tables := []*exp.Table{
		{Title: titleTable2, Columns: []string{"io-miss%", "st-miss%", "exec(s)"}, Formats: []string{"%.1f", "%.1f", "%.2f"}},
		{Title: titleTable3, Columns: []string{"io", "storage"}, Note: "miss-count ratio optimized/default; < 1 is better"},
		{Title: titleFig7a, Columns: []string{"normalized"}},
		{Title: titleFig7h, Columns: []string{"LRU", "KARMA", "DEMOTE-LRU"}},
	}
	rows := []func(app string, parent int64) ([]float64, error){
		func(app string, parent int64) ([]float64, error) {
			d, err := cell(app, "default", "lru", parent)
			if err != nil {
				return nil, err
			}
			return []float64{100 * d.IOMissRate(), 100 * d.StorageMissRate(), float64(d.ExecTimeUS) / 1e6}, nil
		},
		func(app string, parent int64) ([]float64, error) {
			d, o, err := pair(cell, app, "lru", parent)
			if err != nil {
				return nil, err
			}
			return []float64{ratio(float64(o.IO.Misses), float64(d.IO.Misses)),
				ratio(float64(o.Storage.Misses), float64(d.Storage.Misses))}, nil
		},
		func(app string, parent int64) ([]float64, error) {
			d, o, err := pair(cell, app, "lru", parent)
			if err != nil {
				return nil, err
			}
			return []float64{ratio(float64(o.ExecTimeUS), float64(d.ExecTimeUS))}, nil
		},
		func(app string, parent int64) ([]float64, error) {
			var vals []float64
			for _, pol := range policies {
				d, o, err := pair(cell, app, pol, parent)
				if err != nil {
					return nil, err
				}
				vals = append(vals, ratio(float64(o.ExecTimeUS), float64(d.ExecTimeUS)))
			}
			return vals, nil
		},
	}
	var out string
	for i, t := range tables {
		t.Rows = make([]exp.Row, len(apps))
		err := exp.ForEachIndex(ctx, par, len(apps), func(k int) error {
			vals, err := rows[i](apps[k], root)
			t.Rows[k] = exp.Row{App: apps[k], Values: vals}
			return err
		})
		if err != nil {
			return nil, err
		}
		if i >= 2 {
			t.FillAverages()
		}
		out += t.Render() + "\n"
	}
	tr.end(root)
	wall := time.Since(t0).Nanoseconds()
	st, err := selfTimes(tr.snapshot())
	if err != nil {
		return nil, err
	}
	return &childResult{WallNS: wall, Sims: int(st["exp.cell"].Calls), Tables: out, Attempted: 1,
		Layers: layerMetrics(st, tally)}, nil
}

// pair runs the default and optimized cells of app under policy.
func pair(cell func(app, scheme, policy string, parent int64) (*sim.Report, error),
	app, policy string, parent int64) (def, opt *sim.Report, err error) {
	if def, err = cell(app, "default", policy, parent); err != nil {
		return nil, nil, err
	}
	opt, err = cell(app, "inter", policy, parent)
	return def, opt, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// defaultPlans is the standard parallelization of every nest of p.
func defaultPlans(p *poly.Program, cfg sim.Config) (map[*poly.LoopNest]*parallel.Plan, error) {
	plans := make(map[*poly.LoopNest]*parallel.Plan, len(p.Nests))
	for _, n := range p.Nests {
		plan, err := parallel.NewPlan(n, cfg.Threads(), 1)
		if err != nil {
			return nil, err
		}
		plans[n] = plan
	}
	return plans, nil
}

// simulate runs traces on a fresh machine, as flopt.Run and exp.Runner
// do. shards > 1 asks the machine for that many intra-run workers when
// the simulator offers the setting.
func simulate(ctx context.Context, cfg sim.Config, hints []cache.RangeHint, ft *trace.FileTable,
	traces []*trace.NestTrace, shards int) (*sim.Report, error) {
	m, err := sim.NewMachine(cfg, hints)
	if err != nil {
		return nil, err
	}
	blocks := make([]int64, len(ft.Names))
	for f := range blocks {
		blocks[f] = ft.Blocks(int32(f), cfg.BlockElems)
	}
	m.SetFileBlocks(blocks)
	m.SetFileNames(ft.Names)
	if w, ok := any(m).(interface{ SetWorkers(int) }); ok && shards > 1 {
		w.SetWorkers(shards)
	}
	return m.RunContext(ctx, traces)
}

// probeShards runs one simulation through flopt.Run with metrics on and
// reads the shard count it used from the sim_shard_workers gauge; a run
// on the serial engine publishes no such gauge and counts as one shard.
func probeShards() (int, error) {
	w, err := flopt.WorkloadByName("swim")
	if err != nil {
		return 0, err
	}
	p, err := flopt.Compile(w.Name, w.Source)
	if err != nil {
		return 0, err
	}
	rep, err := flopt.Run(context.Background(), p, flopt.DefaultConfig(), flopt.WithMetrics())
	if err != nil {
		return 0, err
	}
	if rep.Metrics != nil {
		if g, ok := rep.Metrics.Gauges["sim_shard_workers"]; ok && g >= 1 {
			return int(g), nil
		}
	}
	return 1, nil
}

// compileSimulate runs one pass over the programs in order: compile,
// optimize, default run, optimized run, each checked against the
// reference. Untraced it goes through the public flopt API; traced it
// makes the same calls layer by layer with a span around each.
func compileSimulate(ref map[string]*section, order []string, tr *tracer, shards int) (*childResult, error) {
	ctx := context.Background()
	cfg := flopt.DefaultConfig()
	res := &childResult{}
	tally := newSimTally()
	t0 := time.Now()
	root := tr.begin("pass", 0)
	for _, name := range order {
		w, err := flopt.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		prog := tr.begin("program", root)
		c0 := time.Now()
		var def, opt *sim.Report
		var simMS [2]float64
		if tr == nil {
			p, err := flopt.Compile(name, w.Source)
			if err != nil {
				return nil, err
			}
			r, err := flopt.Optimize(p, cfg)
			if err != nil {
				return nil, err
			}
			res.CompileMS = append(res.CompileMS, msSince(c0))
			s0 := time.Now()
			if def, err = flopt.Run(ctx, p, cfg); err != nil {
				return nil, err
			}
			simMS[0] = msSince(s0)
			s1 := time.Now()
			if opt, err = flopt.Run(ctx, p, cfg, flopt.WithResult(r)); err != nil {
				return nil, err
			}
			simMS[1] = msSince(s1)
		} else {
			if def, opt, simMS, err = compileSimulateTraced(ctx, tr, prog, cfg, w, tally, shards); err != nil {
				return nil, err
			}
		}
		res.SimMS = append(res.SimMS, simMS[0], simMS[1])
		tr.do("check", prog, func(int64) error {
			if err := checkProgram(ref, name, def, opt); err != nil {
				res.Errors = append(res.Errors, err.Error())
			}
			return nil
		})
		tr.end(prog)
	}
	tr.end(root)
	res.WallNS = time.Since(t0).Nanoseconds()
	res.Sims = len(res.SimMS)
	if tr != nil {
		st, err := selfTimes(tr.snapshot())
		if err != nil {
			return nil, err
		}
		res.Layers = layerMetrics(st, tally)
	}
	return res, nil
}

// compileSimulateTraced is one program of the traced pass: flopt.Compile,
// Optimize and the two Runs taken apart into their layer calls. Step I
// (layout.SolveTransform) is timed as an extra call per array, since
// layout.Optimize makes it internally.
func compileSimulateTraced(ctx context.Context, tr *tracer, parent int64, cfg sim.Config, w flopt.Workload,
	tally *simTally, shards int) (def, opt *sim.Report, simMS [2]float64, err error) {
	var p *poly.Program
	if err = tr.do("lang.parse", parent, func(int64) error {
		p, err = flopt.Compile(w.Name, w.Source)
		return err
	}); err != nil {
		return
	}
	var plans map[*poly.LoopNest]*parallel.Plan
	if err = tr.do("parallel.plan", parent, func(int64) error {
		plans, err = defaultPlans(p, cfg)
		return err
	}); err != nil {
		return
	}
	for _, a := range p.Arrays {
		if err = tr.do("layout.step1", parent, func(int64) error {
			_, err := layout.SolveTransform(p, a, plans)
			return err
		}); err != nil {
			return
		}
	}
	var r *flopt.Result
	if err = tr.do("layout.optimize", parent, func(int64) error {
		r, err = flopt.Optimize(p, cfg)
		return err
	}); err != nil {
		return
	}
	o, n := r.OptimizedCount()
	tally.optimized += o
	tally.arrays += n
	run := func(layouts map[string]layout.Layout, plans map[*poly.LoopNest]*parallel.Plan) (*sim.Report, float64, error) {
		s0 := time.Now()
		var ft *trace.FileTable
		var traces []*trace.NestTrace
		if err := tr.do("trace.generate", parent, func(int64) error {
			var err error
			if ft, err = trace.NewFileTable(p, layouts); err != nil {
				return err
			}
			traces, err = trace.Generate(p, plans, ft, cfg.BlockElems, cfg.Threads())
			return err
		}); err != nil {
			return nil, 0, err
		}
		tally.addTraces(traces)
		var rep *sim.Report
		var runNS int64
		err := tr.do("sim.run."+cfg.Policy, parent, func(int64) error {
			r0 := time.Now()
			var err error
			rep, err = simulate(ctx, cfg, nil, ft, traces, shards)
			runNS = time.Since(r0).Nanoseconds()
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		tally.addReport(cfg.Policy, rep, runNS, shards)
		return rep, msSince(s0), nil
	}
	if def, simMS[0], err = run(layout.DefaultLayouts(p), plans); err != nil {
		return
	}
	opt, simMS[1], err = run(r.Layouts, r.Plans)
	return
}

// checkProgram compares one program's default and optimized reports with
// its Table 2, Table 3 and Fig 7(a) rows.
func checkProgram(ref map[string]*section, name string, def, opt *sim.Report) error {
	t2, t3, f7 := ref[titleTable2], ref[titleTable3], ref[titleFig7a]
	for _, c := range []error{
		t2.checkCell(name, "io-miss%", "%.1f", 100*def.IOMissRate()),
		t2.checkCell(name, "st-miss%", "%.1f", 100*def.StorageMissRate()),
		t2.checkCell(name, "exec(s)", "%.2f", float64(def.ExecTimeUS)/1e6),
		t3.checkCell(name, "io", "%.3f", ratio(float64(opt.IO.Misses), float64(def.IO.Misses))),
		t3.checkCell(name, "storage", "%.3f", ratio(float64(opt.Storage.Misses), float64(def.Storage.Misses))),
		f7.checkCell(name, "normalized", "%.3f", ratio(float64(opt.ExecTimeUS), float64(def.ExecTimeUS))),
	} {
		if c != nil {
			return c
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return msBetween(t, time.Now()) }

func msBetween(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

// childRun is one finished child process as the parent saw it.
type childRun struct {
	SetupNS int64
	RSSMB   float64
	CPUS    float64 // user and system CPU seconds of the whole child
	Res     *childResult
}

// spawnChild runs one child pass of workload and waits for it: set-up is
// process start to the child's "ready" line, peak RSS comes from the
// kernel's accounting of the exited child.
func spawnChild(self, workload string, seed int64, pass int, traced bool, spansPath string) (*childRun, error) {
	args := []string{"-child", workload, "-seed", strconv.FormatInt(seed, 10),
		"-pass", strconv.Itoa(pass), "-spans", spansPath}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &childRun{}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	if rerr == nil && line == "ready\n" {
		run.SetupNS = time.Since(t0).Nanoseconds()
	}
	rest, _ := io.ReadAll(rd)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return nil, fmt.Errorf("child %s: no ready line (read %q): %v", workload, line, werr)
	}
	if werr != nil {
		return nil, fmt.Errorf("child %s pass %d: %w", workload, pass, werr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	run.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	run.Res = &childResult{}
	if err := json.Unmarshal(rest, run.Res); err != nil {
		return nil, fmt.Errorf("child %s pass %d: bad result: %w", workload, pass, err)
	}
	return run, nil
}

// setupProbes is how many extra children a batch run starts only to time
// set-up, so its median rests on more than the few measured passes.
const setupProbes = 5

// runBatch measures a batch workload: fresh child processes, one pass
// each, until the measuring time is spent (at least two passes). The
// traced variant runs one untraced and one traced pass.
func runBatch(self, workload string, seed int64, budget time.Duration, traced bool, spansPath string) (*outcome, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}, detail: map[string]any{}}
	check := func(c *childRun) {
		if workload == "paper-tables" {
			o.attempted += 4
			errs := checkTables(ref, c.Res.Tables)
			o.failed += len(errs)
			o.errs = append(o.errs, errs...)
			return
		}
		o.attempted += c.Res.Attempted
		o.failed += len(c.Res.Errors)
		o.errs = append(o.errs, c.Res.Errors...)
	}
	if traced {
		base, err := spawnChild(self, workload, seed, 0, false, spansPath)
		if err != nil {
			return nil, err
		}
		tc, err := spawnChild(self, workload, seed, 1, true, spansPath)
		if err != nil {
			return nil, err
		}
		check(base)
		check(tc)
		for k, v := range tc.Res.Layers {
			o.values[k] = v
		}
		o.values["trace_overhead_ratio"] = float64(tc.Res.WallNS) / float64(base.Res.WallNS)
		o.detail["untraced_wall_s"] = float64(base.Res.WallNS) / 1e9
		o.detail["traced_wall_s"] = float64(tc.Res.WallNS) / 1e9
		return o, nil
	}

	var setups, walls, cpus, rss, rates, simMS, compileMS []float64
	for i := 0; i < setupProbes; i++ {
		c, err := spawnChild(self, "probe", seed, i, false, spansPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(c.SetupNS)/1e9)
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		c, err := spawnChild(self, workload, seed, pass, false, spansPath)
		if err != nil {
			return nil, err
		}
		check(c)
		wall := float64(c.Res.WallNS) / 1e9
		setups = append(setups, float64(c.SetupNS)/1e9)
		walls = append(walls, wall)
		rss = append(rss, c.RSSMB)
		cpus = append(cpus, c.CPUS)
		rates = append(rates, float64(c.Res.Sims)/c.CPUS)
		simMS = append(simMS, c.Res.SimMS...)
		compileMS = append(compileMS, c.Res.CompileMS...)
		if pass >= 1 && time.Since(start)+time.Duration(median(walls)*1e9) > budget {
			break
		}
	}
	o.values["setup_s"] = median(setups)
	o.values["peak_rss_mb"] = median(rss)
	o.values["throughput_per_cpu_s"] = median(rates)
	o.detail["passes"] = len(walls)
	o.detail["wall_s"] = walls
	o.detail["cpu_s"] = cpus
	o.detail["peak_rss_mb"] = rss
	o.detail["setup_s"] = setups
	if workload == "paper-tables" {
		o.values["p50_ms"] = median(walls) * 1000
	} else {
		o.values["p50_ms"] = median(simMS)
		o.detail["sim_ms"] = summarize(simMS)
		o.detail["compile_ms"] = summarize(compileMS)
	}
	return o, nil
}

// checkTables compares each of the four reference sections with the
// section of the same title in a pass's rendered tables, byte for byte.
func checkTables(ref map[string]*section, rendered string) []string {
	got, err := parseSections(rendered)
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	for _, t := range []string{titleTable2, titleTable3, titleFig7a, titleFig7h} {
		switch g := got[t]; {
		case g == nil:
			errs = append(errs, fmt.Sprintf("table %q missing from output", t))
		case g.Text != ref[t].Text:
			errs = append(errs, fmt.Sprintf("table %q differs from the reference:\n%s", t, g.Text))
		}
	}
	return errs
}
