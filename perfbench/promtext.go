package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseMetrics parses Prometheus text exposition into series values keyed
// by the series as written ("name" or "name{labels}"). Comment lines are
// skipped; a malformed sample line is an error.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside the label set.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); end > cut {
			return nil, fmt.Errorf("metrics line %d: no value in %q", i+1, line)
		}
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", i+1, line)
		}
		series, val := strings.TrimSpace(line[:cut]), line[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %w", i+1, val, err)
		}
		out[series] = v
	}
	return out, nil
}

// family sums every series of one metric family; ok is false when the
// family is absent, which callers report as absent rather than zero.
func family(m map[string]float64, name string) (sum float64, ok bool) {
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name+"{")) {
			sum += v
			ok = true
		}
	}
	return sum, ok
}
