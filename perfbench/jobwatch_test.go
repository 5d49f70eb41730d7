package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The watch stamps each journal record when it is written, skips the
// records already in the journal, and joins a line written in two parts.
func TestJobWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte(`{"op":"accept","id":"job-old"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := watchJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(s string) {
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(id, op string) time.Time {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if at, ok := w.at(id, op); ok {
				return at
			}
		}
		t.Fatalf("record %s of %s not seen", op, id)
		return time.Time{}
	}

	before := time.Now()
	write(`{"op":"accept","id":"job-1","layout":"x"}` + "\n" + `{"op":"start","id":"job-1"}` + "\n")
	start := wait("job-1", "start")
	time.Sleep(20 * time.Millisecond)
	write(`{"op":"done","id":"job-1",`)
	time.Sleep(20 * time.Millisecond)
	write(`"state":"done"}` + "\n")
	done := wait("job-1", "done")

	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.at("job-old", "accept"); ok {
		t.Error("a record written before the watch started was stamped")
	}
	if accept, _ := w.at("job-1", "accept"); accept.Before(before) || accept.After(start) {
		t.Errorf("accept stamped %v, want between %v and the start %v", accept, before, start)
	}
	if d := done.Sub(start); d < 40*time.Millisecond {
		t.Errorf("done stamped %v after start, want at least the 40ms until its line was complete", d)
	}
}
