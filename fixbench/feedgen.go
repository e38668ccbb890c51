package main

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// feedGen is the open-loop load generator: a feed server (the wire
// protocol of feed.Server, RESUME greeting included) that writes the
// pre-encoded lines in per-tick chunks on a fixed schedule — line
// stamped t is due at t0 + (t − origin)/speedup — which never slows
// when the system under test slows. The schedule starts when begin is
// called. After the last line the connection is closed cleanly, which
// the client reads as the end of the feed.
//
// Lines [0, warmEnd) are the warm-up, replayed as fast as the system
// takes them: one slide's lines at a time (up to and including the
// line that closes the slide) in chunks of warmChunk lines, each sent
// once the previous ones are decoded and buffered, then a wait until
// waitSlide reports the slide processed. Writing faster would overflow
// the ingest buffer, which drops rather than blocks: it is sized for a
// live feed's rate, not for a replay.
type feedGen struct {
	in      *input
	warmEnd int // first scheduled line
	endLine int // one past the last line served
	origin  int64
	speedup float64
	tick    time.Duration
	slide   time.Duration
	grid    int64 // slide grid origin (unix), as the Batcher aligns it
	ln      net.Listener
	// waitSlide blocks until the pipeline has processed the slide with
	// query time q, reporting false if it never will; drained reports
	// whether the client has taken in the first n lines and its ingest
	// buffer has room for another warm-up chunk.
	waitSlide func(q time.Time) bool
	drained   func(n int) bool

	startCh   chan struct{}
	startOnce sync.Once
	stopCh    chan struct{}
	stopOnce  sync.Once
	done      chan struct{}

	mu      sync.Mutex
	t0      time.Time
	pos     int // next line to write
	lateMax time.Duration
	bytes   int64
	conns   int
	resumes int
}

func newFeedGen(in *input, warmEnd, endLine int, origin time.Time, speedup float64, tick, slide time.Duration,
	waitSlide func(time.Time) bool, drained func(int) bool) (*feedGen, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &feedGen{
		in: in, warmEnd: warmEnd, endLine: endLine, origin: origin.Unix(),
		speedup: speedup, tick: tick, slide: slide, ln: ln, waitSlide: waitSlide, drained: drained,
		grid:    in.start().Truncate(slide).Unix(),
		startCh: make(chan struct{}), stopCh: make(chan struct{}), done: make(chan struct{}),
	}
	go g.serve()
	return g, nil
}

func (g *feedGen) addr() string { return g.ln.Addr().String() }

// begin starts the schedule: t0 is now.
func (g *feedGen) begin() time.Time {
	g.startOnce.Do(func() {
		g.mu.Lock()
		g.t0 = time.Now()
		g.mu.Unlock()
		close(g.startCh)
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.t0
}

// due returns the wall instant stream time t is due on the schedule.
func (g *feedGen) due(t time.Time) time.Time {
	g.mu.Lock()
	t0 := g.t0
	g.mu.Unlock()
	return t0.Add(time.Duration(float64(t.Unix()-g.origin) * float64(time.Second) / g.speedup))
}

// stop ends the generator and waits for its goroutines.
func (g *feedGen) stop() {
	g.stopOnce.Do(func() {
		close(g.stopCh)
		g.ln.Close()
	})
	<-g.done
}

func (g *feedGen) stats() (lateMax time.Duration, bytes int64, conns, resumes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lateMax, g.bytes, g.conns, g.resumes
}

// serve handles one connection at a time: a client that reconnects
// RESUMEs and continues on the same schedule.
func (g *feedGen) serve() {
	defer close(g.done)
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		finished := g.stream(conn)
		conn.Close()
		if finished {
			return
		}
	}
}

// stream serves one connection, reporting whether the whole stream was
// written.
func (g *feedGen) stream(conn net.Conn) bool {
	g.mu.Lock()
	g.conns++
	g.mu.Unlock()
	if cursor, ok := greeting(conn); ok && cursor >= 0 {
		// Resume strictly after the cursor, as feed.Server does.
		g.mu.Lock()
		g.resumes++
		g.pos = len(g.in.times)
		for i, t := range g.in.times {
			if t > cursor {
				g.pos = i
				break
			}
		}
		g.mu.Unlock()
	}
	write := func(to int) bool {
		g.mu.Lock()
		from := g.pos
		g.mu.Unlock()
		if to <= from {
			return true
		}
		n, err := conn.Write(g.in.nmea[g.in.offs[from]:g.in.offs[to]])
		g.mu.Lock()
		g.bytes += int64(n)
		if err == nil {
			g.pos = to
		}
		g.mu.Unlock()
		return err == nil
	}
	for {
		g.mu.Lock()
		pos := g.pos
		g.mu.Unlock()
		if pos >= g.warmEnd {
			break
		}
		q := g.queryOf(g.in.times[pos])
		end := min(g.in.lineAfter(q)+1, g.warmEnd)
		for from := pos; from < end; from += warmChunk {
			for !g.drained(from) {
				select {
				case <-g.stopCh:
					return true
				case <-time.After(200 * time.Microsecond):
				}
			}
			if !write(min(from+warmChunk, end)) {
				return false
			}
		}
		if !g.waitSlide(q) {
			return true
		}
	}
	select {
	case <-g.startCh:
	case <-g.stopCh:
		return true
	}
	g.mu.Lock()
	t0 := g.t0
	g.mu.Unlock()
	streamPerTick := float64(g.tick) * g.speedup / float64(time.Second)
	for k := 1; ; k++ {
		g.mu.Lock()
		pos := g.pos
		g.mu.Unlock()
		if pos >= g.endLine {
			return true
		}
		due := t0.Add(time.Duration(k) * g.tick)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-g.stopCh:
				return true
			}
		}
		if late := time.Since(due); late > 0 {
			g.mu.Lock()
			if late > g.lateMax {
				g.lateMax = late
			}
			g.mu.Unlock()
		}
		bound := g.origin + int64(float64(k)*streamPerTick)
		to := pos
		for to < g.endLine && g.in.times[to] <= bound {
			to++
		}
		if !write(to) {
			return false
		}
	}
}

// warmChunk is the warm-up's flow-control unit, in lines: a quarter of
// the ingest buffer.
const warmChunk = 2048

// queryOf returns the query time of the slide a line stamped t falls
// in: the Batcher's grid, slides (Q−β, Q], the grid origin itself
// belonging to the first slide.
func (g *feedGen) queryOf(t int64) time.Time {
	b := int64(g.slide / time.Second)
	k := (t - g.grid + b - 1) / b
	if k < 1 {
		k = 1
	}
	return time.Unix(g.grid+k*b, 0).UTC()
}

// greeting reads the client's optional "RESUME <unix>" line (the
// handshake feed.ReconnectingClient always sends), within two seconds.
func greeting(conn net.Conn) (int64, bool) {
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	line, err := bufio.NewReaderSize(conn, 64).ReadString('\n')
	if err != nil {
		return 0, false
	}
	f := strings.Fields(line)
	if len(f) != 2 || f[0] != "RESUME" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[1], 10, 64)
	return v, err == nil
}
