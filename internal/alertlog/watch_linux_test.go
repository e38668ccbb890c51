//go:build linux

package alertlog

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// guard bounds how long a test waits for a delivery before failing. It
// only turns a hang into a failure; no test asserts a latency.
const guard = 30 * time.Second

// collector gathers what a tailer delivers.
type collector struct {
	mu  sync.Mutex
	got []serve.Envelope
}

func (c *collector) sink(envs []serve.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, envs...)
	c.mu.Unlock()
}

func (c *collector) snapshot() []serve.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]serve.Envelope(nil), c.got...)
}

// waitUntil polls cond until it holds, failing the test after guard.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(guard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runTailer starts a tailer on dir with the given backstop bounds and
// returns it, its delivered records and a stop function that cancels
// Run and waits for it to return (also run at cleanup).
func runTailer(t *testing.T, dir string, min, max time.Duration) (*Tailer, *collector, func()) {
	t.Helper()
	c := &collector{}
	tl := NewTailer(dir, 0, c.sink, TailOptions{})
	tl.minPoll, tl.maxPoll = min, max
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
	stop := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(guard):
			t.Fatal("Run did not return after cancel")
		}
	}
	t.Cleanup(stop)
	return tl, c, stop
}

// inotifyFDs counts this process's open inotify descriptors.
func inotifyFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == "anon_inode:inotify" {
			n++
		}
	}
	return n
}

func TestTailerWakesOnAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// An hour-long backstop: only the directory watch can deliver.
	tl, c, _ := runTailer(t, dir, time.Hour, time.Hour)
	waitUntil(t, "the first (empty) poll", func() bool { return tl.Stats().Polls >= 1 })
	if err := l.Append(testEnvs(1, 10)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "10 records", func() bool { return len(c.snapshot()) >= 10 })
	requireContiguous(t, c.snapshot(), 1, 10)
	if tl.Stats().Wakes == 0 {
		t.Fatal("records arrived without a wake")
	}
}

func TestTailerWakesAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, c, _ := runTailer(t, dir, time.Hour, time.Hour)
	waitUntil(t, "the first (empty) poll", func() bool { return tl.Stats().Polls >= 1 })
	for seq := uint64(1); seq <= 100; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
		want := int(seq + 9)
		waitUntil(t, "records through the newest segment", func() bool { return len(c.snapshot()) >= want })
	}
	requireContiguous(t, c.snapshot(), 1, 100)
	if l.Stats().Segments < 3 {
		t.Fatalf("only %d segments; the test did not exercise rotation", l.Stats().Segments)
	}
}

func TestTailerArmsWatchOnceDirectoryAppears(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "alerts")
	// The first backstop ticks are short so the watch re-arms soon after
	// the directory appears; the backoff then grows toward an hour, so
	// later deliveries rely on the watch.
	tl, c, _ := runTailer(t, dir, minPoll, time.Hour)
	waitUntil(t, "polls of the missing directory", func() bool { return tl.Stats().Polls >= 2 })
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 10)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the first 10 records", func() bool { return len(c.snapshot()) >= 10 })
	if err := l.Append(testEnvs(11, 10)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "20 records and a wake", func() bool { return len(c.snapshot()) >= 20 && tl.Stats().Wakes > 0 })
	requireContiguous(t, c.snapshot(), 1, 20)
}

func TestTailerRunClosesWatch(t *testing.T) {
	before := inotifyFDs(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, c, stop := runTailer(t, dir, time.Hour, time.Hour)
	waitUntil(t, "the first (empty) poll", func() bool { return tl.Stats().Polls >= 1 })
	if err := l.Append(testEnvs(1, 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a woken delivery", func() bool { return len(c.snapshot()) == 1 && tl.Stats().Wakes > 0 })
	if got := inotifyFDs(t); got != before+1 {
		t.Fatalf("%d inotify descriptors while tailing, want %d", got, before+1)
	}
	// stop returns once Run has returned, and Run returns only after the
	// watch's fd is closed and its event goroutine has exited.
	stop()
	if got := inotifyFDs(t); got != before {
		t.Fatalf("%d inotify descriptors after Run returned, want %d", got, before)
	}
}
