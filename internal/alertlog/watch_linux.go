//go:build linux

package alertlog

import (
	"os"
	"syscall"
)

// dirWatch turns inotify events on a log directory into wake-ups: after
// any segment is written, created or renamed into the directory, one
// wake is pending (coalesced, capacity 1), so both appends and
// rotations wake a tailer.
type dirWatch struct {
	c    chan struct{}
	f    *os.File
	done chan struct{}
}

// watchDir arms a watch on dir. It returns nil when the watch cannot be
// armed (no directory yet, inotify limits); the tailer's backstop poll
// then covers the directory and retries the watch on its next tick.
func watchDir(dir string) *dirWatch {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MODIFY|syscall.IN_CREATE|syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil
	}
	// A non-blocking fd wrapped by os.NewFile reads through the runtime
	// poller, so close unblocks the pending Read below.
	w := &dirWatch{
		c:    make(chan struct{}, 1),
		f:    os.NewFile(uintptr(fd), "inotify:"+dir),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		buf := make([]byte, 4096)
		for {
			if _, err := w.f.Read(buf); err != nil {
				return
			}
			select {
			case w.c <- struct{}{}:
			default: // a wake is already pending
			}
		}
	}()
	return w
}

// wake returns the channel a pending wake is received from (nil, which
// blocks forever, for a nil watch).
func (w *dirWatch) wake() <-chan struct{} {
	if w == nil {
		return nil
	}
	return w.c
}

// close releases the inotify fd and waits for the event goroutine to
// exit. A nil watch is a no-op.
func (w *dirWatch) close() {
	if w == nil {
		return
	}
	w.f.Close()
	<-w.done
}
