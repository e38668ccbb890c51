//go:build !linux

package alertlog

// dirWatch is a tailer's wake-up source. Without inotify there is none:
// watchDir returns nil and the tailer runs on its backstop poll alone.
type dirWatch struct{}

func watchDir(string) *dirWatch { return nil }

// wake returns nil, a channel that never delivers.
func (*dirWatch) wake() <-chan struct{} { return nil }

func (*dirWatch) close() {}
