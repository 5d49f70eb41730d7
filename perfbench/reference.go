package main

import (
	_ "embed"
	"fmt"
	"strings"
)

// referenceText holds the sections of results_all.txt the benchmark
// checks against: Table 2, Table 3, Fig 7(a) and Fig 7(h). It is a copy,
// so a change to the program cannot move the reference with it.
//
//go:embed testdata/reference.txt
var referenceText string

// Section titles, as the tables render them.
const (
	titleTable2 = "Table 2: default execution (row-major layouts, LRU inclusive)"
	titleTable3 = "Table 3: cache misses after optimization (normalized to Table 2)"
	titleFig7a  = "Fig 7(a): normalized execution time (inter-node / default)"
	titleFig7h  = "Fig 7(h): normalized execution time under cache policies"
)

// section is one rendered table: its full text and its cells by row name
// (application or "average") and column header.
type section struct {
	Title string
	Text  string
	Cells map[string]map[string]string
}

// parseSections splits rendered tables ("=== title ===", header, rule,
// rows, optional note, separated by blank lines) into sections by title.
func parseSections(text string) (map[string]*section, error) {
	out := map[string]*section{}
	for _, block := range strings.Split(strings.ReplaceAll(text, "\r\n", "\n"), "\n\n") {
		block = strings.Trim(block, "\n")
		if block == "" {
			continue
		}
		lines := strings.Split(block, "\n")
		title, ok := strings.CutPrefix(lines[0], "=== ")
		if !ok || !strings.HasSuffix(title, " ===") || len(lines) < 3 {
			return nil, fmt.Errorf("reference: malformed section starting %q", lines[0])
		}
		title = strings.TrimSuffix(title, " ===")
		cols := strings.Fields(lines[1])
		if len(cols) < 2 || cols[0] != "application" {
			return nil, fmt.Errorf("reference: section %q has header %q", title, lines[1])
		}
		// Column names of the four checked sections hold no spaces.
		cols = cols[1:]
		s := &section{Title: title, Text: block, Cells: map[string]map[string]string{}}
		for _, line := range lines[3:] {
			if strings.HasPrefix(line, "note: ") {
				continue
			}
			f := strings.Fields(line)
			if len(f) != len(cols)+1 {
				return nil, fmt.Errorf("reference: section %q row %q has %d values, want %d", title, line, len(f)-1, len(cols))
			}
			row := map[string]string{}
			for i, c := range cols {
				row[c] = f[i+1]
			}
			s.Cells[f[0]] = row
		}
		if _, dup := out[title]; dup {
			return nil, fmt.Errorf("reference: duplicate section %q", title)
		}
		out[title] = s
	}
	return out, nil
}

// loadReference parses the embedded reference and checks it holds the
// four sections the workloads compare against.
func loadReference() (map[string]*section, error) {
	ref, err := parseSections(referenceText)
	if err != nil {
		return nil, err
	}
	for _, t := range []string{titleTable2, titleTable3, titleFig7a, titleFig7h} {
		if ref[t] == nil {
			return nil, fmt.Errorf("reference: missing section %q", t)
		}
	}
	return ref, nil
}

// cell returns one reference value, or an error naming what is missing.
func (s *section) cell(row, col string) (string, error) {
	r, ok := s.Cells[row]
	if !ok {
		return "", fmt.Errorf("reference %q has no row %q", s.Title, row)
	}
	v, ok := r[col]
	if !ok {
		return "", fmt.Errorf("reference %q has no column %q", s.Title, col)
	}
	return v, nil
}

// checkCell compares a formatted value with the reference cell.
func (s *section) checkCell(row, col, format string, v float64) error {
	want, err := s.cell(row, col)
	if err != nil {
		return err
	}
	if got := fmt.Sprintf(format, v); got != want {
		return fmt.Errorf("%s: %s/%s = %s, reference %s", s.Title, row, col, got, want)
	}
	return nil
}
