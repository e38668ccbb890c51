package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
)

// world is the static knowledge every system under test is built over:
// the fleetsim world the feed's fixes come from (35 areas).
type world struct {
	vessels []maritime.Vessel
	areas   []maritime.Area
	ports   []mod.PortArea
}

// input is one workload's generated stream: the fleet simulated at the
// seed, pre-encoded as feed wire lines ("<unix> <NMEA>\n", the format
// feed.Server writes). The live workloads' programs see only these
// bytes, cluster-replay sees them in the slice wire form (wireForm);
// times/offs index them for the open-loop schedule.
type input struct {
	world
	nmea  []byte
	times []int64 // unix second of line i
	offs  []int   // byte offset of line i; offs[len] = len(nmea)
}

// generate simulates vessels for dur at seed and encodes the stream.
// Encoding is split across two goroutines (it is outside every timed
// phase); the halves are concatenated in stream order.
func generate(seed int64, vessels int, dur time.Duration) (*input, error) {
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Vessels = vessels
	cfg.NumAreas = 35
	cfg.Duration = dur
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		return nil, fmt.Errorf("fleetsim produced no fixes")
	}
	in := &input{}
	in.vessels, in.areas, in.ports = core.AdaptWorld(sim)

	type part struct {
		buf   []byte
		times []int64
		offs  []int
		err   error
	}
	const parts = 2
	out := make([]part, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*len(fixes)/parts, (p+1)*len(fixes)/parts
		// The first part's buffer has room for the whole stream, so the
		// second is appended to it without another copy of the input.
		size := (hi - lo) * 64
		if p == 0 {
			size = len(fixes) * 64
		}
		wg.Add(1)
		go func(pt *part, lo, hi, size int) {
			defer wg.Done()
			pt.buf = make([]byte, 0, size)
			pt.times = make([]int64, 0, hi-lo)
			pt.offs = make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				f := fixes[i]
				rep := &ais.PositionReport{
					Type: ais.TypePositionA, MMSI: f.MMSI,
					Lon: f.Pos.Lon, Lat: f.Pos.Lat,
					UTCSecond: f.Time.Second(),
				}
				lines, err := ais.EncodeSentences(rep, "A", i)
				if err != nil {
					pt.err = fmt.Errorf("encoding fix %d: %w", i, err)
					return
				}
				for _, l := range lines {
					pt.offs = append(pt.offs, len(pt.buf))
					pt.times = append(pt.times, f.Time.Unix())
					pt.buf = strconv.AppendInt(pt.buf, f.Time.Unix(), 10)
					pt.buf = append(pt.buf, ' ')
					pt.buf = append(pt.buf, l...)
					pt.buf = append(pt.buf, '\n')
				}
			}
		}(&out[p], lo, hi, size)
	}
	wg.Wait()
	for _, pt := range out {
		if pt.err != nil {
			return nil, pt.err
		}
	}
	in.nmea, in.times, in.offs = out[0].buf, out[0].times, out[0].offs
	for _, pt := range out[1:] {
		base := len(in.nmea)
		in.nmea = append(in.nmea, pt.buf...)
		in.times = append(in.times, pt.times...)
		for _, o := range pt.offs {
			in.offs = append(in.offs, base+o)
		}
	}
	in.offs = append(in.offs, len(in.nmea))
	return in, nil
}

// start returns the stream time of the first line.
func (in *input) start() time.Time { return time.Unix(in.times[0], 0).UTC() }

// lineAfter returns the index of the first line stamped strictly after
// t (len(times) when none is).
func (in *input) lineAfter(t time.Time) int {
	u := t.Unix()
	return sort.Search(len(in.times), func(i int) bool { return in.times[i] > u })
}

// bytesUpTo returns the encoded stream up to (excluding) line i.
func (in *input) bytesUpTo(i int) []byte { return in.nmea[:in.offs[i]] }

// reader returns a fresh reader over the lines [0, i).
func (in *input) reader(i int) *bytes.Reader { return bytes.NewReader(in.bytesUpTo(i)) }
