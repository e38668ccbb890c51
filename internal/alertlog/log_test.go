package alertlog

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/maritime"
	"repro/internal/serve"
)

// testEnvs builds n deterministic envelopes with sequences first..first+n-1.
func testEnvs(first uint64, n int) []serve.Envelope {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]serve.Envelope, n)
	for i := range out {
		seq := first + uint64(i)
		out[i] = serve.Envelope{
			Seq:       seq,
			Slide:     base.Add(time.Duration(seq) * time.Minute),
			Published: base.Add(time.Duration(seq) * time.Minute),
			Alert: maritime.Alert{
				CE:     "speeding",
				AreaID: "a1",
				Time:   base.Add(time.Duration(seq) * time.Minute),
				Vessel: uint32(237000000 + seq%40),
			},
		}
	}
	return out
}

// seqsOf extracts the sequence numbers of a batch.
func seqsOf(envs []serve.Envelope) []uint64 {
	out := make([]uint64, len(envs))
	for i, e := range envs {
		out[i] = e.Seq
	}
	return out
}

// requireContiguous asserts envs covers exactly first..last once, in order.
func requireContiguous(t *testing.T, envs []serve.Envelope, first, last uint64) {
	t.Helper()
	want := int(last - first + 1)
	if len(envs) != want {
		t.Fatalf("got %d records, want %d (%d..%d); seqs=%v", len(envs), want, first, last, seqsOf(envs))
	}
	for i, e := range envs {
		if e.Seq != first+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, e.Seq, first+uint64(i))
		}
	}
}

// readAll drains the log from afterSeq via a fresh reader.
func readAll(t *testing.T, dir string, afterSeq uint64) []serve.Envelope {
	t.Helper()
	r := NewReader(dir, afterSeq)
	defer r.Close()
	var out []serve.Envelope
	for {
		batch, err := r.Next(256)
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch...)
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(101, 50)); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 150 {
		t.Fatalf("LastSeq=%d, want 150", got)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 150)
	// ReadSince respects the cursor.
	envs, err := l.ReadSince(140, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, envs, 141, 150)
}

func TestRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 200; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments > 3 {
		t.Fatalf("retention kept %d segments, want ≤ 3", st.Segments)
	}
	if st.PrunedSegments == 0 {
		t.Fatal("expected pruned segments with a 512-byte rotation threshold")
	}
	if st.FirstSeq == 1 {
		t.Fatal("FirstSeq did not advance past the pruned range")
	}
	// A reader starting before the retained range jumps forward and
	// accounts the loss — the log never silently closes a gap.
	r := NewReader(dir, 0)
	defer r.Close()
	var got []serve.Envelope
	for {
		batch, err := r.Next(256)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	requireContiguous(t, got, st.FirstSeq, 200)
	if want := st.FirstSeq - 1; r.Skipped() != want {
		t.Fatalf("reader skipped %d, want %d", r.Skipped(), want)
	}
}

func TestIdempotentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 10)); err != nil {
		t.Fatal(err)
	}
	// A checkpoint replay re-publishes 5..12: 5..10 must be discarded as
	// already durable, 11..12 appended.
	if err := l.Append(testEnvs(5, 8)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SkippedDup != 6 {
		t.Fatalf("SkippedDup=%d, want 6", st.SkippedDup)
	}
	if st.LastSeq != 12 {
		t.Fatalf("LastSeq=%d, want 12", st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 12)
}

func TestGapCounting(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(9, 2)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.GapRecords != 3 {
		t.Fatalf("GapRecords=%d, want 3 (seqs 6..8 never logged)", st.GapRecords)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: cut the segment mid-record, as a crash
	// between write and fsync would.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	if err := os.Truncate(segs[0].path, segs[0].size-7); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Truncations != 1 {
		t.Fatalf("Truncations=%d, want 1", st.Truncations)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not counted")
	}
	if st.LastSeq != 19 {
		t.Fatalf("LastSeq=%d after torn-tail recovery, want 19", st.LastSeq)
	}
	// Every frame before the torn one survived, and the writer resumes
	// exactly after the recovered tail.
	requireContiguous(t, readAll(t, dir, 0), 1, 19)
	if err := l2.Append(testEnvs(20, 5)); err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 24)
}

func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes inside the newest record's payload: framing length still
	// parses, the CRC must catch it.
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, segs[0].size-10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncations != 1 || st.LastSeq != 19 {
		t.Fatalf("Truncations=%d LastSeq=%d, want 1/19", st.Truncations, st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 19)
}

func TestCrashWriterLeavesRecoverableTail(t *testing.T) {
	dir := t.TempDir()
	// The crash writer dies mid-frame partway into the stream — the
	// injected equivalent of the process being killed between write and
	// fsync.
	l, err := Open(dir, Options{WrapWriter: func(w io.Writer) io.Writer {
		return faults.NewCrashWriter(w, 2000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	var crashed bool
	for seq := uint64(1); seq <= 100 && !crashed; seq += 5 {
		if err := l.Append(testEnvs(seq, 5)); err != nil {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash writer never fired; raise the record count")
	}
	// No Close: a crashed process does not seal its segment.

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.LastSeq == 0 {
		t.Fatal("recovery found no durable records")
	}
	// The survivors are contiguous from 1 — recovery cut the torn frame,
	// never a frame before it.
	requireContiguous(t, readAll(t, dir, 0), 1, st.LastSeq)
	// Post-restart replay re-appends the whole range: durable records
	// deduplicate, lost ones land again — exactly once end to end.
	if err := l2.Append(testEnvs(1, 100)); err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, 100)
	if l2.Stats().SkippedDup != st.LastSeq {
		t.Fatalf("SkippedDup=%d, want %d", l2.Stats().SkippedDup, st.LastSeq)
	}
}

func TestReaderFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := NewReader(dir, 0)
	defer r.Close()
	var got []serve.Envelope
	for seq := uint64(1); seq <= 100; seq += 10 {
		if err := l.Append(testEnvs(seq, 10)); err != nil {
			t.Fatal(err)
		}
		// Interleave reads with appends so the reader crosses live
		// rotations, not a finished chain.
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	for {
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	requireContiguous(t, got, 1, 100)
	if l.Stats().Segments < 3 {
		t.Fatalf("only %d segments; the test did not exercise rotation", l.Stats().Segments)
	}
}

func TestTailSeqAndReplay(t *testing.T) {
	dir := t.TempDir()
	if got := TailSeq(dir); got != 0 {
		t.Fatalf("TailSeq of empty dir = %d, want 0", got)
	}
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := TailSeq(dir); got != 60 {
		t.Fatalf("TailSeq=%d, want 60", got)
	}
	rp := OpenReplay(dir)
	if got := rp.LastSeq(); got != 60 {
		t.Fatalf("Replay.LastSeq=%d, want 60", got)
	}
	envs, err := rp.ReadSince(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireContiguous(t, envs, 51, 60)
	if rp.Append(testEnvs(61, 1)) == nil {
		t.Fatal("read-only replay accepted an append")
	}
}

func TestRecoveryDropsSegmentsPastCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEnvs(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(segs))
	}
	// Corrupt a MIDDLE segment: recovery must end the log there and drop
	// every later segment — otherwise a sequence gap would hide inside
	// the chain.
	mid := segs[len(segs)/2]
	f, err := os.OpenFile(mid.path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, mid.size/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatalf("recovery refused to open: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Truncations != 1 {
		t.Fatalf("Truncations=%d, want 1", st.Truncations)
	}
	if st.LastSeq == 0 || st.LastSeq >= 60 {
		t.Fatalf("LastSeq=%d, want inside (0,60)", st.LastSeq)
	}
	requireContiguous(t, readAll(t, dir, 0), 1, st.LastSeq)
	for _, p := range segsAfter(t, dir, mid.start) {
		t.Fatalf("segment %s survived past the corruption", p)
	}
}

// segsAfter lists segment paths with start > after.
func segsAfter(t *testing.T, dir string, after uint64) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range segs {
		if s.start > after {
			out = append(out, filepath.Base(s.path))
		}
	}
	return out
}

// TestReaderRescansSegmentSealedAfterScan pins the rotation race a live
// tailer hits: the reader finds the active segment's end, the writer then
// appends more records there and rotates, and only after that does the
// reader list the segments and see the successor. The records appended
// between the scan and the rotation are in the sealed segment and must
// still be delivered, not counted as skipped.
func TestReaderRescansSegmentSealedAfterScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testEnvs(1, 1)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(dir, 0)
	defer r.Close()
	got, err := r.Next(1024)
	if err != nil {
		t.Fatal(err)
	}
	// The reader's next scan of the active segment would come back empty;
	// the writer appends and rotates before the reader looks for a
	// successor.
	if err := l.Append(testEnvs(2, 10)); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Segments < 2 {
		t.Fatalf("only %d segments; the append did not rotate", l.Stats().Segments)
	}
	if _, err := r.advance(&got, 1024); err != nil {
		t.Fatal(err)
	}
	for {
		batch, err := r.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	requireContiguous(t, got, 1, 11)
	if r.Skipped() != 0 {
		t.Errorf("reader skipped %d records that are in the sealed segment", r.Skipped())
	}
}
