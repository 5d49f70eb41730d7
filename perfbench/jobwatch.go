package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// jobWatch times a daemon's simulate jobs from its job journal. floptd
// appends one JSON line to jobs.wal in its data dir, in a single
// write(2), when it accepts, starts and finishes a job; the watch reads
// each new line as inotify reports the write and stamps it with the
// time it was seen. Polls 200 ms apart cannot resolve a job's run time;
// the journal resolves it to the watch's wake-up latency.
type jobWatch struct {
	events *os.File // the inotify instance
	log    *os.File // the journal, read on from where the last read stopped
	done   chan struct{}

	mu    sync.Mutex
	seen  map[string]map[string]time.Time // job ID → op → first seen
	err   error
	stray []byte // an incomplete last line, completed by a later write
}

// watchJobs starts watching the job journal at path. Records already in
// it are skipped. floptd rewrites the journal when it boots and stops,
// so the watch must start after boot and end before the stop.
func watchJobs(path string) (*jobWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("job watch: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_MODIFY); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("job watch %s: %w", path, err)
	}
	w := &jobWatch{events: os.NewFile(uintptr(fd), "inotify"), done: make(chan struct{}),
		seen: map[string]map[string]time.Time{}}
	if w.log, err = os.Open(path); err == nil {
		_, err = w.log.Seek(0, io.SeekEnd)
	}
	if err != nil {
		w.events.Close()
		return nil, fmt.Errorf("job watch: %w", err)
	}
	go w.loop()
	return w, nil
}

func (w *jobWatch) loop() {
	defer close(w.done)
	buf := make([]byte, 4096)
	for {
		if _, err := w.events.Read(buf); err != nil {
			if !errors.Is(err, os.ErrClosed) {
				w.fail(err)
			}
			return
		}
		now := time.Now()
		b, err := io.ReadAll(w.log)
		if err != nil {
			w.fail(err)
			return
		}
		w.add(b, now)
	}
}

// add records the complete journal lines in b, seen at now.
func (w *jobWatch) add(b []byte, now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b = append(w.stray, b...)
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			break
		}
		var rec struct{ Op, ID string }
		if err := json.Unmarshal(b[:i], &rec); err != nil || rec.ID == "" {
			if w.err == nil {
				w.err = fmt.Errorf("job journal line %q: not a job record", b[:i])
			}
		} else {
			if w.seen[rec.ID] == nil {
				w.seen[rec.ID] = map[string]time.Time{}
			}
			if _, ok := w.seen[rec.ID][rec.Op]; !ok {
				w.seen[rec.ID][rec.Op] = now
			}
		}
		b = b[i+1:]
	}
	w.stray = append([]byte(nil), b...)
}

func (w *jobWatch) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("job watch: %w", err)
	}
	w.mu.Unlock()
}

// at returns when the journal record op of job id was seen.
func (w *jobWatch) at(id, op string) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.seen[id][op]
	return t, ok
}

// close ends the watch and returns the first error it met.
func (w *jobWatch) close() error {
	w.events.Close()
	<-w.done
	w.log.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
