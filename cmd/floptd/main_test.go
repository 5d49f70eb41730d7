package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunVersion(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("run -version = %d", code)
	}
	if !strings.HasPrefix(out.String(), "floptd ") {
		t.Errorf("version banner = %q", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero workers", []string{"-workers", "0"}},
		{"zero queue", []string{"-queue", "0"}},
		{"zero cache", []string{"-cache", "0"}},
		{"negative chaos", []string{"-chaos", "-0.1"}},
		{"chaos above one", []string{"-chaos", "1.5"}},
		{"negative request timeout", []string{"-request-timeout", "-1s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
			if !strings.Contains(errOut.String(), "must be") {
				t.Errorf("stderr = %q", errOut.String())
			}
		})
	}
	for _, args := range [][]string{{"-nope"}, {"-sim-workers", "2"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("unknown flag %v: run = %d, want 2", args, code)
		}
	}
}

func TestRunClusterFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"peers without node-id", []string{"-peers", "a=http://h:1,b=http://h:2"}, "-node-id"},
		{"node-id without peers", []string{"-node-id", "a"}, "-peers"},
		{"bad roster", []string{"-node-id", "a", "-peers", "garbage"}, "id=url"},
		{"duplicate ids", []string{"-node-id", "a", "-peers", "a=http://h:1,a=http://h:2"}, "duplicate"},
		{"self not in roster", []string{"-node-id", "z", "-peers", "a=http://h:1,b=http://h:2", "-addr", "127.0.0.1:0"}, "not in roster"},
		{"zero gossip", []string{"-node-id", "a", "-peers", "a=http://h:1", "-gossip-interval", "0s"}, "gossip-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run(tc.args, &out, &errOut)
			if code == 0 {
				t.Fatalf("run(%v) = 0, want failure", tc.args)
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr = %q, want mention of %q", errOut.String(), tc.want)
			}
		})
	}
}

// TestRunLoadgenBadTarget exercises the loadgen entry point's error path
// without a live daemon: an unreachable target fails cleanly.
func TestRunLoadgenBadTarget(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-loadgen", "-target", "http://127.0.0.1:1", "-duration", "1s"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "floptd:") {
		t.Errorf("stderr = %q", errOut.String())
	}
}
