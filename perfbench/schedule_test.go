package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"flopt/internal/sim"
	"flopt/internal/workloads"
)

func TestProgramOrderIsSeededPermutation(t *testing.T) {
	a, b := programOrder(7, 1), programOrder(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different order: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, programOrder(8, 1)) && reflect.DeepEqual(a, programOrder(7, 2)) {
		t.Fatal("order ignores seed and pass")
	}
	got := append([]string(nil), a...)
	sort.Strings(got)
	want := append([]string(nil), workloads.Names()...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v is not a permutation of %v", a, want)
	}
}

func TestFixedPhaseTrafficIsByteIdenticalPerSeed(t *testing.T) {
	enc := func(seed int64) []byte {
		c := newChunker(seed, 16)
		var chunks []chunk
		for i := 0; i < 5; i++ {
			chunks = append(chunks, c.next())
		}
		b, err := json.Marshal(chunks)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := enc(3), enc(3); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different traffic")
	}
	if bytes.Equal(enc(3), enc(4)) {
		t.Fatal("different seeds gave the same traffic")
	}
	c := newChunker(3, 16)
	seen := map[[2]int]bool{}
	cached := 0
	for i := 0; i < 20; i++ {
		ch := c.next()
		if len(ch.Offsets) != len(ch.Idx) || len(ch.Offsets) == 0 {
			t.Fatalf("chunk %d: %d arrivals for %d pool indices", i, len(ch.Offsets), len(ch.Idx))
		}
		for _, ev := range ch.Compiles {
			if ev.Cached {
				cached++
				continue
			}
			k := [2]int{ev.Cfg.IOCacheBlocks, ev.Cfg.StorageCacheBlocks}
			if seen[k] {
				t.Fatalf("platform override %v used twice: the compile would hit the cache", k)
			}
			seen[k] = true
		}
	}
	if cached == 0 || len(seen) == 0 {
		t.Fatalf("%d repeat and %d uncached compiles: the mix needs both", cached, len(seen))
	}
}

func TestJobPlanRunsEveryProgramInPairs(t *testing.T) {
	a, b := jobPlan(9, 16), jobPlan(9, 16)
	if len(a) != 32 {
		t.Fatalf("plan has %d jobs, want 32", len(a))
	}
	progs := map[int]bool{}
	for i := range a {
		if a[i].prog != b[i].prog || a[i].optimized != b[i].optimized || a[i].think != b[i].think {
			t.Fatalf("job %d differs for one seed", i)
		}
		if a[i].prog != i/2 {
			t.Fatalf("job %d simulates program %d, want Table 2 order", i, a[i].prog)
		}
		if a[i].optimized != (i%2 == 1) || a[i].pair != a[i-i%2].pair || a[i].think >= jobThink {
			t.Fatalf("job %d: optimized=%v think=%v", i, a[i].optimized, a[i].think)
		}
		progs[a[i].prog] = true
	}
	if len(progs) != 16 {
		t.Fatalf("plan covers %d programs, want 16", len(progs))
	}
}

func TestOffsetsPoolIsByteIdenticalPerSeed(t *testing.T) {
	cfg := sim.DefaultConfig()
	var progs []*oracle
	for _, n := range workloads.Names() {
		w, _ := workloads.ByName(n)
		o, err := buildOracle(nil, 0, n, w.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, o)
	}
	a, err := makePool(5, progs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makePool(5, progs)
	if err != nil {
		t.Fatal(err)
	}
	dims := map[int]bool{}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("pool entry %d differs for one seed", i)
		}
		if a[i].prog != i%len(progs) {
			t.Fatalf("pool entry %d targets program %d, want %d", i, a[i].prog, i%len(progs))
		}
		for _, q := range a[i].qs {
			for d, v := range q.Dir {
				if v != 0 {
					dims[d] = true
				}
			}
		}
	}
	if !dims[0] || !dims[1] {
		t.Fatalf("query directions cover dimensions %v only", dims)
	}
}

func TestAnswersFlagAChangedAnswer(t *testing.T) {
	a := newAnswers()
	if err := a.add(3, []byte(`{"results":[1]}`)); err != nil {
		t.Fatal(err)
	}
	if err := a.add(3, []byte(`{"results":[1]}`)); err != nil {
		t.Fatalf("same answer flagged: %v", err)
	}
	if err := a.add(3, []byte(`{"results":[2]}`)); err == nil {
		t.Fatal("changed answer not flagged")
	}
	if string(a.first[3]) != `{"results":[1]}` {
		t.Fatalf("first answer %q not kept", a.first[3])
	}
}
