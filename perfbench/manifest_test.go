package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json must list exactly the metrics the benchmark prints, with
// the same units.
func TestManifestMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, benchmark prints %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, kv := range want {
			units[kv[0]] = kv[1]
		}
		for _, g := range got {
			if u, ok := units[g.Name]; !ok || u != g.Unit {
				t.Errorf("%s: manifest metric %s [%s], benchmark prints unit %q", kind, g.Name, g.Unit, u)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}
