package flopt

import (
	"context"
	"os"
	"strings"
	"testing"

	"flopt/internal/exp"
	"flopt/internal/sim"
)

// resultsSection returns the section of results_all.txt headed
// "=== title ===", up to and including its last line (sections are
// separated by one blank line).
func resultsSection(t *testing.T, all, title string) string {
	t.Helper()
	head := "=== " + title + " ===\n"
	i := strings.Index(all, head)
	if i < 0 {
		t.Fatalf("results_all.txt has no section %q", title)
	}
	sec := all[i:]
	if j := strings.Index(sec, "\n\n"); j >= 0 {
		sec = sec[:j+1]
	}
	return sec
}

// TestPaperTablesMatchResults pins the paper's headline numbers: Table 2,
// Table 3 and Fig 7(a), rendered through the experiment harness, must
// equal the sections of the same title in results_all.txt byte for byte.
// Fig 7(d) is left out: its (64,16,8) column in the file predates the
// current node-count grid.
func TestPaperTablesMatchResults(t *testing.T) {
	raw, err := os.ReadFile("results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	all := string(raw)
	r := exp.NewRunner()
	cfg := sim.DefaultConfig()
	for _, build := range []func(context.Context, *exp.Runner, sim.Config) (*exp.Table, error){
		exp.Table2, exp.Table3, exp.Fig7a,
	} {
		tab, err := build(context.Background(), r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := tab.Render()
		if want := resultsSection(t, all, tab.Title); got != want {
			t.Errorf("%s drifted from results_all.txt:\n--- got ---\n%s--- want ---\n%s", tab.Title, got, want)
		}
	}
}
