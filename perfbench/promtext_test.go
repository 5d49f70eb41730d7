package main

import (
	"os"
	"testing"
)

func TestParseMetricsGolden(t *testing.T) {
	b, err := os.ReadFile("../internal/service/testdata/metrics.golden")
	if err != nil {
		t.Skip("metrics golden not beside the benchmark:", err)
	}
	m, err := parseMetrics(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := family(m, "floptd_offsets_strided_total"); !ok || v != 10 {
		t.Fatalf("strided = %v, %v", v, ok)
	}
	if v, ok := family(m, "floptd_latency_us_count"); !ok || v < 7 {
		t.Fatalf("labelled family sum = %v, %v", v, ok)
	}
}

func TestFamilyAbsentIsNotZero(t *testing.T) {
	m, err := parseMetrics("# HELP x\nfloptd_a_total 3\nfloptd_ab_total 4\nfloptd_c{k=\"v w\"} 1.5e+01\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := family(m, "floptd_a_total"); !ok || v != 3 {
		t.Fatalf("a = %v, %v (a prefix of another family must not merge)", v, ok)
	}
	if v, ok := family(m, "floptd_c"); !ok || v != 15 {
		t.Fatalf("c = %v, %v", v, ok)
	}
	if _, ok := family(m, "floptd_sim_shards"); ok {
		t.Fatal("missing family reported present")
	}
	for _, bad := range []string{"novalue", "x{a=\"1\"}", "x abc"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("malformed %q parsed", bad)
		}
	}
}

func TestServiceDeltasLeaveMissingFamiliesOut(t *testing.T) {
	before := map[string]float64{"floptd_compile_builds_total": 2}
	after := map[string]float64{"floptd_compile_builds_total": 9, "floptd_offsets_queries_total": 8,
		"floptd_offsets_strided_total": 2, "floptd_queue_depth": 0}
	m := map[string]float64{"service.walked_elems": 0}
	serviceDeltas(m, before, after, []map[string]float64{{"floptd_queue_depth": 3}})
	if m["service.compile_builds"] != 7 || m["service.offsets_strided_ratio"] != 0.25 || m["service.queue_depth_max"] != 3 {
		t.Fatalf("deltas = %v", m)
	}
	if _, ok := m["service.walked_elems"]; ok {
		t.Fatal("walked elems reported although its family is missing")
	}
	if _, ok := m["service.compile_hit_ratio"]; ok {
		t.Fatal("hit ratio reported although its families are missing")
	}
}
