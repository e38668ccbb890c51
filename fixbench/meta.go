package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runMeta describes the machine and the code a result was measured on.
func runMeta(workload string, seed int64, seconds int, traced bool, inputBytes int, baseRSS float64) map[string]any {
	return map[string]any{
		"workload":        workload,
		"seed":            seed,
		"seconds":         seconds,
		"traced":          traced,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
		"go":              runtime.Version(),
		"commit":          commit(),
		"source_sha256":   sourceDigest(),
		"input_bytes":     inputBytes,
		"rss_at_reset_mb": baseRSS,
	}
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	kb := procStatusKB("VmHWM:")
	return float64(kb) / 1024
}

// resetPeakRSS returns the garbage of input generation and the
// reference run to the OS and restarts the peak-RSS high-water mark, so
// peak_rss_mb covers the set-ups and the measured pass only. It returns
// the resident set at the reset, in MiB: mostly the generated input and
// the reference alerts, which stay live for the whole run.
func resetPeakRSS() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return float64(procStatusKB("VmRSS:")) / 1024, nil
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field) {
			fs := strings.Fields(line[len(field):])
			if len(fs) > 0 {
				v, _ := strconv.ParseInt(fs[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the working
// directory is a git checkout ("unknown" otherwise; sourceDigest
// identifies the code either way).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under the working
// directory (skipping hidden directories such as .bench_build), so two
// results can be told apart by the code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
