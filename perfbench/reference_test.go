package main

import (
	"os"
	"strings"
	"testing"

	"flopt/internal/exp"
)

func TestReferenceHoldsTheFourSections(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ref[titleTable2].cell("swim", "exec(s)"); err != nil || v != "57.02" {
		t.Fatalf("Table 2 swim exec = %q, %v", v, err)
	}
	if v, err := ref[titleFig7h].cell("average", "DEMOTE-LRU"); err != nil || v != "0.501" {
		t.Fatalf("Fig 7(h) average DEMOTE-LRU = %q, %v", v, err)
	}
	if _, err := ref[titleFig7a].cell("nosuchapp", "normalized"); err == nil {
		t.Fatal("missing row not reported")
	}
	if err := ref[titleTable2].checkCell("swim", "exec(s)", "%.2f", 57.0249); err != nil {
		t.Fatal(err)
	}
	if err := ref[titleTable2].checkCell("swim", "exec(s)", "%.2f", 57.03); err == nil {
		t.Fatal("a wrong value passed the check")
	}
}

// The reference is a verbatim copy of sections of results_all.txt.
func TestReferenceMatchesResultsFile(t *testing.T) {
	b, err := os.ReadFile("../results_all.txt")
	if err != nil {
		t.Skip("results_all.txt not beside the benchmark:", err)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for title, s := range ref {
		if !strings.Contains(string(b), s.Text+"\n\n") {
			t.Errorf("section %q is not a verbatim section of results_all.txt", title)
		}
	}
}

func TestCheckTablesComparesRenderedText(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkTables(ref, referenceText); len(errs) != 0 {
		t.Fatalf("reference does not match itself: %v", errs)
	}
	changed := strings.Replace(referenceText, "57.02", "57.03", 1)
	if errs := checkTables(ref, changed); len(errs) != 1 {
		t.Fatalf("one changed cell gave %d errors: %v", len(errs), errs)
	}
	partial := referenceText[:strings.Index(referenceText, "=== Fig 7(h)")]
	if errs := checkTables(ref, partial); len(errs) != 1 {
		t.Fatalf("a missing table gave %d errors: %v", len(errs), errs)
	}
}

func TestParseSectionsReadsRenderedTable(t *testing.T) {
	tb := &exp.Table{Title: "T", Columns: []string{"a", "b"}, Note: "n",
		Rows: []exp.Row{{App: "x", Values: []float64{1, 2}}, {App: "y", Values: []float64{3, 4}}}}
	tb.FillAverages()
	secs, err := parseSections(tb.Render())
	if err != nil {
		t.Fatal(err)
	}
	s := secs["T"]
	if s == nil || s.Cells["y"]["b"] != "4.000" || s.Cells["average"]["a"] != "2.000" {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{"no title\nx\ny", "=== T ===\nfoo a\n---", "=== T ===\napplication a\n---\nx 1 2"} {
		if _, err := parseSections(bad); err == nil {
			t.Errorf("malformed %q parsed", bad)
		}
	}
}
