// Package faults provides a deterministic fault-injection TCP proxy for
// the live AIS feed: the wire-level analogue of stream.Delayer. The
// paper stresses that AIS data "is not noise-free; messages may be
// delayed, intermittent, or conflicting" (§2); faults.Proxy reproduces
// the transport half of that statement — connection resets, mid-line
// truncation, byte corruption, duplication, stalls and reordering — so
// chaos tests and live drivers can exercise the pipeline's degradation
// guards against a seeded, replayable fault schedule.
package faults

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// Plan is the deterministic fault schedule of a Proxy. All line counts
// refer to upstream (server→client) lines; the client→server direction
// (the resume handshake) is relayed verbatim. Given the same upstream
// byte stream and the same Plan, the injected faults are identical.
type Plan struct {
	// Seed drives the random choices that remain (e.g. which byte of a
	// line to corrupt); 0 is a valid fixed seed.
	Seed int64
	// ResetAfterLines severs the i-th accepted connection with a TCP RST
	// after that many upstream lines; connections beyond the slice (or
	// entries < 0) run clean.
	ResetAfterLines []int
	// TruncateOnReset delivers the first half of the line in flight
	// before the RST, so the client observes a mid-line cut.
	TruncateOnReset bool
	// CorruptEvery XORs one payload byte of every Nth line (0 = off).
	CorruptEvery int
	// DuplicateEvery sends every Nth line twice (0 = off).
	DuplicateEvery int
	// ReorderEvery holds every Nth line back one position, swapping it
	// with its successor (0 = off).
	ReorderEvery int
	// StallEvery pauses the stream for StallFor before every Nth line
	// (0 = off), simulating an intermittent link.
	StallEvery int
	StallFor   time.Duration
}

// Stats counts the faults a Proxy actually injected.
type Stats struct {
	Connections     int
	Resets          int
	CorruptedLines  int
	DuplicatedLines int
	ReorderedLines  int
	TruncatedLines  int
	Stalls          int
}

// Proxy is a fault-injecting TCP relay between a feed server and its
// clients. Zero value plus Upstream is ready to serve.
type Proxy struct {
	// Upstream is the real feed server's address.
	Upstream string
	Plan     Plan
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	stats     Stats
	corrupted []string
	truncated []string
	conns     int
}

// Serve accepts and relays connections until ctx is cancelled.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("faults: accept: %w", err)
		}
		p.mu.Lock()
		idx := p.conns
		p.conns++
		p.stats.Connections++
		p.mu.Unlock()
		p.logf("connection %d accepted from %s", idx, conn.RemoteAddr())
		go p.handle(ctx, conn, idx)
	}
}

// ListenAndServe binds addr and serves until ctx is cancelled,
// reporting the bound address through addrCh (buffered, length 1).
func (p *Proxy) ListenAndServe(ctx context.Context, addr string, addrCh chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faults: listen: %w", err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr()
	}
	return p.Serve(ctx, ln)
}

// Stats returns a snapshot of the injected-fault counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CorruptedLines returns the original, intact upstream lines whose
// delivered copies were corrupted — the fixes the proxy verifiably
// destroyed (a corrupted line fails the NMEA checksum downstream and is
// never resent, because the resume cursor moves past it).
func (p *Proxy) CorruptedLines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.corrupted...)
}

// TruncatedLines returns the upstream lines cut mid-byte by a reset.
// Unlike corrupted lines these are usually recovered: a resuming client
// asks for replay from just before its last complete fix.
func (p *Proxy) TruncatedLines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.truncated...)
}

// handle relays one client connection with faults applied.
func (p *Proxy) handle(ctx context.Context, client net.Conn, idx int) {
	defer client.Close()
	upstream, err := net.DialTimeout("tcp", p.Upstream, 10*time.Second)
	if err != nil {
		p.logf("connection %d: upstream dial: %v", idx, err)
		return
	}
	defer upstream.Close()
	// Relay the client→server direction (the resume handshake) verbatim.
	go io.Copy(upstream, client)

	rng := rand.New(rand.NewSource(p.Plan.Seed + int64(idx)*1009))
	resetAt := -1
	if idx < len(p.Plan.ResetAfterLines) {
		resetAt = p.Plan.ResetAfterLines[idx]
	}
	r := bufio.NewReader(upstream)
	lineNo := 0
	held := "" // a line delayed by reordering
	flushHeld := func() bool {
		if held == "" {
			return true
		}
		_, werr := io.WriteString(client, held)
		held = ""
		return werr == nil
	}
	for {
		if ctx.Err() != nil {
			return
		}
		line, rerr := r.ReadString('\n')
		if line != "" {
			lineNo++
			if resetAt >= 0 && lineNo > resetAt {
				flushHeld()
				// Log before severing: once the client sees the reset it
				// may be gone, and its logger with it.
				p.logf("connection %d: injected reset after %d lines", idx, resetAt)
				p.reset(client, line)
				return
			}
			if p.Plan.StallEvery > 0 && lineNo%p.Plan.StallEvery == 0 && p.Plan.StallFor > 0 {
				p.count(func(s *Stats) { s.Stalls++ })
				time.Sleep(p.Plan.StallFor)
			}
			out := line
			if p.Plan.CorruptEvery > 0 && lineNo%p.Plan.CorruptEvery == 0 {
				out = corruptLine(line, rng)
				p.mu.Lock()
				p.stats.CorruptedLines++
				p.corrupted = append(p.corrupted, strings.TrimRight(line, "\n"))
				p.mu.Unlock()
			}
			if p.Plan.ReorderEvery > 0 && lineNo%p.Plan.ReorderEvery == 0 && held == "" && rerr == nil {
				// Hold this line; it goes out after its successor.
				held = out
				p.count(func(s *Stats) { s.ReorderedLines++ })
			} else {
				writes := []string{out}
				if p.Plan.DuplicateEvery > 0 && lineNo%p.Plan.DuplicateEvery == 0 {
					writes = append(writes, out)
					p.count(func(s *Stats) { s.DuplicatedLines++ })
				}
				for _, w := range writes {
					if _, werr := io.WriteString(client, w); werr != nil {
						return
					}
				}
				if !flushHeld() {
					return
				}
			}
		}
		if rerr != nil {
			flushHeld()
			if rerr != io.EOF {
				p.logf("connection %d: upstream: %v", idx, rerr)
			}
			return // defers close both sides; client sees a clean FIN
		}
	}
}

// reset severs the client connection with an RST, optionally delivering
// half of the in-flight line first.
func (p *Proxy) reset(client net.Conn, line string) {
	payload := strings.TrimRight(line, "\n")
	if p.Plan.TruncateOnReset && len(payload) > 2 {
		io.WriteString(client, payload[:len(payload)/2])
		p.mu.Lock()
		p.stats.TruncatedLines++
		p.truncated = append(p.truncated, payload)
		p.mu.Unlock()
	}
	p.count(func(s *Stats) { s.Resets++ })
	if tcp, ok := client.(*net.TCPConn); ok {
		tcp.SetLinger(0) // force RST so the client sees a transport error
	}
	client.Close()
}

// corruptLine XORs one byte of the NMEA payload (after the '!') so the
// checksum verifiably fails downstream; a line without a '!' gets an
// arbitrary byte hit instead.
func corruptLine(line string, rng *rand.Rand) string {
	n := len(line)
	if strings.HasSuffix(line, "\n") {
		n--
	}
	if n == 0 {
		return line
	}
	lo := 0
	if bang := strings.IndexByte(line, '!'); bang >= 0 && bang+1 < n {
		lo = bang + 1
	}
	i := lo + rng.Intn(n-lo)
	b := []byte(line)
	b[i] ^= 0x01
	return string(b)
}

func (p *Proxy) count(fn func(*Stats)) {
	p.mu.Lock()
	fn(&p.stats)
	p.mu.Unlock()
}

func (p *Proxy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}
