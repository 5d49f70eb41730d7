package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	st, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := st["root"].SelfN; got != 100-50-10 {
		t.Fatalf("root self = %d", got)
	}
	if got := st["a"]; got.Calls != 2 || got.TotalN != 60 || got.SelfN != 55 {
		t.Fatalf("a = %+v", got)
	}
	if _, err := selfTimes([]span{{ID: 1, Name: "open", Start: 5, End: -1}}); err == nil {
		t.Fatal("unended span accepted")
	}
}

func TestTracerRecordsParentsAndWritesJSONL(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.begin("pass", 0)
	if err := tr.do("lang.parse", root, func(int64) error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Run != "run-1" || spans[1].End <= spans[1].Start {
		t.Fatalf("spans = %+v", spans)
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "s.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
	var nilTracer *tracer
	if nilTracer.begin("x", 0) != 0 || nilTracer.snapshot() != nil {
		t.Fatal("nil tracer recorded")
	}
}
