package main

import (
	"unsafe"

	"flopt/internal/sim"
	"flopt/internal/trace"
)

// policies are the cache policies per-layer simulator figures are split
// by (the three of Fig 7(h)).
var policies = []string{"lru", "karma", "demote"}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not call reports zero
// calls and zero time. Figures scraped from floptd's /metrics are left
// out when their family is missing, never reported as zero.
var perLayer = func() [][2]string {
	m := [][2]string{
		{"lang.parse_us", "us"},
		{"parallel.plan_us", "us"},
		{"layout.step1_us", "us"},
		{"layout.optimize_us", "us"},
		{"layout.optimized_ratio", "ratio"},
		{"trace.generate_us", "us"},
		{"trace.entries", "count"},
		{"trace.blocks", "count"},
		{"trace.bytes", "bytes"},
	}
	for _, p := range policies {
		m = append(m,
			[2]string{"sim.run_us." + p, "us"},
			[2]string{"sim.ns_per_access." + p, "ns"},
			[2]string{"sim.accesses." + p, "count"},
			[2]string{"sim.shards." + p, "count"})
	}
	return append(m,
		[2]string{"storage.io_miss_ratio", "ratio"},
		[2]string{"storage.st_miss_ratio", "ratio"},
		[2]string{"storage.disk_reads", "count"},
		[2]string{"exec_time_us", "us"},
		[2]string{"exp.cell_ms", "ms"},
		[2]string{"exp.cells", "count"},
		[2]string{"service.offsets_us", "us"},
		[2]string{"service.offsets_strided_ratio", "ratio"},
		[2]string{"service.walked_elems", "count"},
		[2]string{"service.compile_builds", "count"},
		[2]string{"service.compile_hit_ratio", "ratio"},
		[2]string{"service.submit_us", "us"},
		[2]string{"service.job_wait_ms", "ms"},
		[2]string{"service.queue_depth_max", "count"},
		[2]string{"service.throttled", "count"},
		[2]string{"service.shed", "count"},
		[2]string{"layer_self_ratio", "ratio"},
		[2]string{"trace_overhead_ratio", "ratio"},
	)
}()

// layerSpans are the span names that are calls into a program layer, as
// opposed to the benchmark's own bookkeeping spans (pass, program, check).
// The layer self-time share of a pass sums these.
var layerSpans = map[string]bool{
	"lang.parse": true, "parallel.plan": true, "layout.step1": true, "layout.optimize": true,
	"trace.generate": true, "sim.hints": true, "sim.run.lru": true, "sim.run.karma": true,
	"sim.run.demote": true, "service.offsets": true, "service.compile": true,
	"service.submit": true, "service.poll": true,
}

// simTally accumulates simulated and host figures over a set of
// simulations.
type simTally struct {
	ioAcc, ioMiss, stAcc, stMiss, diskReads, execUS int64
	accesses                                        map[string]int64
	runNS                                           map[string]int64
	shards                                          map[string]int
	entries, blocks                                 int64
	optimized, arrays                               int
}

func newSimTally() *simTally {
	return &simTally{accesses: map[string]int64{}, runNS: map[string]int64{}, shards: map[string]int{}}
}

// addReport folds one simulation's report and host run time in.
func (t *simTally) addReport(policy string, rep *sim.Report, runNS int64, shards int) {
	t.ioAcc += rep.IO.Accesses
	t.ioMiss += rep.IO.Misses
	t.stAcc += rep.Storage.Accesses
	t.stMiss += rep.Storage.Misses
	t.diskReads += rep.DiskReads
	t.execUS += rep.ExecTimeUS
	t.accesses[policy] += rep.Accesses
	t.runNS[policy] += runNS
	t.shards[policy] = shards
}

// addTraces folds one generated trace set in.
func (t *simTally) addTraces(traces []*trace.NestTrace) {
	for _, nt := range traces {
		for _, s := range nt.Streams {
			t.entries += int64(len(s))
		}
		t.blocks += nt.TotalAccesses()
	}
}

// fraction is a/b for a metric, 0 when nothing was counted.
func fraction(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns span statistics and tallies into the per-layer
// metric map, with every name of perLayer present.
func layerMetrics(st map[string]layerStat, t *simTally) map[string]float64 {
	m := map[string]float64{}
	for _, kv := range perLayer {
		m[kv[0]] = 0
	}
	m["lang.parse_us"] = st["lang.parse"].meanSelfUS()
	m["parallel.plan_us"] = st["parallel.plan"].meanSelfUS()
	m["layout.step1_us"] = st["layout.step1"].meanSelfUS()
	m["layout.optimize_us"] = st["layout.optimize"].meanSelfUS()
	m["trace.generate_us"] = st["trace.generate"].meanSelfUS()
	m["exp.cell_ms"] = st["exp.cell"].meanTotalMS()
	m["exp.cells"] = float64(st["exp.cell"].Calls)
	m["layout.optimized_ratio"] = fraction(int64(t.optimized), int64(t.arrays))
	m["trace.entries"] = float64(t.entries)
	m["trace.blocks"] = float64(t.blocks)
	m["trace.bytes"] = float64(t.entries) * float64(unsafe.Sizeof(trace.Access{}))
	for _, p := range policies {
		s := st["sim.run."+p]
		m["sim.run_us."+p] = s.meanSelfUS()
		m["sim.accesses."+p] = float64(t.accesses[p])
		m["sim.ns_per_access."+p] = fraction(t.runNS[p], t.accesses[p])
		m["sim.shards."+p] = float64(t.shards[p])
	}
	m["storage.io_miss_ratio"] = fraction(t.ioMiss, t.ioAcc)
	m["storage.st_miss_ratio"] = fraction(t.stMiss, t.stAcc)
	m["storage.disk_reads"] = float64(t.diskReads)
	m["exec_time_us"] = float64(t.execUS)
	return m
}

// layerSelfRatio is the summed self time of layer spans over the wall
// time of the pass: how much of the pass the layer calls explain. It
// exceeds 1 where layers run concurrently (paper-tables cells).
func layerSelfRatio(st map[string]layerStat, wallNS int64) float64 {
	var self int64
	for name, s := range st {
		if layerSpans[name] {
			self += s.SelfN
		}
	}
	return fraction(self, wallNS)
}
