package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"flopt/internal/obs"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
)

// mixedWork is the scheduler-identity workload: two nests over two arrays
// with a column scan (cache-hostile, heavy disk traffic) followed by a row
// scan (sequential runs, stream-table and readahead traffic), so both
// cache levels, the disks and the stream detectors all see sustained load.
const mixedWork = `
array A[64][64];
array B[64][64];
parallel(i) for i = 0 to 63 { for j = 0 to 63 { read A[j][i]; read B[i][j]; } }
parallel(j) for j = 0 to 63 { for i = 0 to 63 { read A[j][i]; } }
`

// referenceRun is the scheduler's specification written plainly: each nest
// starts at the barrier of the previous one, and every step serves one
// block for the thread with the smallest (virtual clock, thread id). It
// uses no heap, no packed keys and no run batching, so RunContext's
// optimized loop must reproduce it exactly.
func referenceRun(m *Machine, traces []*trace.NestTrace) *Report {
	threads := m.cfg.Threads()
	clock := make([]int64, threads)
	var accesses int64
	if m.obsOn {
		m.obs.Event(obs.Event{Kind: obs.EvRunStart, Node: -1, Thread: -1, File: -1,
			Detail: fmt.Sprintf("nests=%d threads=%d policy=%s", len(traces), threads, m.mgr.Name())})
	}
	for ni, nt := range traces {
		barrier := int64(0)
		for _, c := range clock {
			barrier = max(barrier, c)
		}
		if m.obsOn {
			m.obs.Event(obs.Event{TimeUS: barrier / 1000, Kind: obs.EvNestStart,
				Node: -1, Thread: -1, File: -1, Detail: fmt.Sprintf("nest=%d", ni)})
		}
		streams := make([][]trace.Access, threads)
		for t := range clock {
			clock[t] = barrier
			streams[t] = trace.ExpandStream(nt.Streams[t])
		}
		for {
			next := -1
			for t, s := range streams {
				if len(s) > 0 && (next < 0 || clock[t] < clock[next]) {
					next = t
				}
			}
			if next < 0 {
				break
			}
			a := streams[next][0]
			streams[next] = streams[next][1:]
			clock[next] += m.serve(clock[next], next, a.File, a.Block, a.Elems)
			accesses++
			if m.obsOn && accesses%evictionSampleEvery == 0 {
				m.sampleEvictions(clock[next])
			}
		}
	}
	return m.buildReport(clock, accesses)
}

// newWiredMachine builds a machine the way flopt.Run does: KARMA hints,
// file lengths for readahead and array names for the metrics snapshot.
func newWiredMachine(t *testing.T, cfg Config, ft *trace.FileTable, traces []*trace.NestTrace) *Machine {
	t.Helper()
	var hints []cache.RangeHint
	if cfg.Policy == "karma" {
		hints = GenerateHints(cfg, ft, traces)
	}
	m, err := NewMachine(cfg, hints)
	if err != nil {
		t.Fatal(err)
	}
	fileBlocks := make([]int64, len(ft.Names))
	for f := range fileBlocks {
		fileBlocks[f] = ft.Blocks(int32(f), cfg.BlockElems)
	}
	m.SetFileBlocks(fileBlocks)
	m.SetFileNames(ft.Names)
	return m
}

// runVariant is one column of the policy × variant matrix the scheduler
// tests run: a fault intensity and seed, or a readahead depth.
type runVariant struct {
	name      string
	faults    float64
	seed      int64
	readahead int
}

var runVariants = []runVariant{
	{name: "healthy"},
	{name: "faults-seed42", faults: 0.6, seed: 42},
	{name: "faults-seed7", faults: 0.35, seed: 7},
	{name: "readahead", readahead: 2},
}

// config is smallConfig with the variant applied, the given policy and
// metrics on.
func (v runVariant) config(policy string) Config {
	cfg := smallConfig()
	cfg.Policy = policy
	cfg.FaultIntensity, cfg.FaultSeed = v.faults, v.seed
	cfg.ReadaheadBlocks = v.readahead
	cfg.Metrics = true
	return cfg
}

// TestSchedulerMatchesReference pins RunContext's heap scheduler with root
// batching against referenceRun: for every policy, fault seed and
// readahead mode, the report — including the full metrics snapshot — is
// identical.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, policy := range cache.Names() {
		for _, v := range runVariants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				cfg := v.config(policy)
				ft, traces := buildTraces(t, mixedWork, cfg, false)

				got, err := newWiredMachine(t, cfg, ft, traces).Run(traces)
				if err != nil {
					t.Fatal(err)
				}
				if got.DiskReads == 0 {
					t.Fatal("workload produced no disk traffic; test is vacuous")
				}
				want := referenceRun(newWiredMachine(t, cfg, ft, traces), traces)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("report differs from the reference scheduler\ngot:  %+v\nwant: %+v", got, want)
				}
				gotJSON, err := json.Marshal(got.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(wantJSON) {
					t.Error("metrics snapshot differs from the reference scheduler")
				}
			})
		}
	}
}

// TestShardedSimulationIdentical pins that simulations sharded across
// goroutines stay independent: exp.Runner's cell pool and floptd's job
// workers run many machines at once over the same cached traces, so for
// every policy, fault seed and readahead mode, each of several machines
// running concurrently on one shared FileTable and trace set must produce
// a report — including the full metrics snapshot — identical to a lone
// run's. Under -race this also checks that the run only reads the traces.
func TestShardedSimulationIdentical(t *testing.T) {
	const shards = 4
	for _, policy := range cache.Names() {
		for _, v := range runVariants {
			t.Run(policy+"/"+v.name, func(t *testing.T) {
				cfg := v.config(policy)
				ft, traces := buildTraces(t, mixedWork, cfg, false)

				lone, err := newWiredMachine(t, cfg, ft, traces).Run(traces)
				if err != nil {
					t.Fatal(err)
				}
				if lone.DiskReads == 0 {
					t.Fatal("workload produced no disk traffic; test is vacuous")
				}
				loneJSON, err := json.Marshal(lone.Metrics)
				if err != nil {
					t.Fatal(err)
				}

				machines := make([]*Machine, shards)
				for i := range machines {
					machines[i] = newWiredMachine(t, cfg, ft, traces)
				}
				reps := make([]*Report, shards)
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for i, m := range machines {
					wg.Add(1)
					go func() {
						defer wg.Done()
						reps[i], errs[i] = m.Run(traces)
					}()
				}
				wg.Wait()

				for i, rep := range reps {
					if errs[i] != nil {
						t.Fatalf("shard %d: %v", i, errs[i])
					}
					if !reflect.DeepEqual(lone, rep) {
						t.Errorf("shard %d: report differs from the lone run\nlone:  %+v\nshard: %+v", i, lone, rep)
					}
					gotJSON, err := json.Marshal(rep.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					if string(gotJSON) != string(loneJSON) {
						t.Errorf("shard %d: metrics snapshot differs from the lone run", i)
					}
				}
			})
		}
	}
}

// TestGenerateHintsDeterministic pins that KARMA hint generation is a
// pure function of the traces.
func TestGenerateHintsDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = "karma"
	ft, traces := buildTraces(t, mixedWork, cfg, false)
	h1 := GenerateHints(cfg, ft, traces)
	h2 := GenerateHints(cfg, ft, traces)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("KARMA hint generation is nondeterministic")
	}
}
