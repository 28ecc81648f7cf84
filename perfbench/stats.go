package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// scale holds every size knob of the workloads. paperScale is what the
// benchmark measures; the tests run the same code at a tiny scale.
type scale struct {
	// N is the extension size of tables, serve-mix and commit; PointN
	// that of serve-point.
	N, PointN int
	// Buffer is the buffer-pool size in pages (the paper's 1200).
	Buffer int
	// Loops and Samples are the paper workload of queries 2b/3b and of
	// the sampled single-shot queries.
	Loops, Samples int
	// PointLoops and PointSamples are serve-point's short requests.
	PointLoops, PointSamples int
	// MixSeeds and PointSeeds size the pools of query seeds the served
	// requests draw from (serve-mix and commit; serve-point).
	MixSeeds, PointSeeds int
	// SetupReps is how many times a run sets up; setup_s is the median.
	SetupReps int
	// CheckpointBytes is the commit workload's WAL checkpoint threshold.
	CheckpointBytes int64
}

func paperScale() scale {
	return scale{
		N: 1500, PointN: 300, Buffer: 1200,
		Loops: 300, Samples: 40,
		PointLoops: 2, PointSamples: 1,
		MixSeeds: 4, PointSeeds: 64,
		SetupReps:       5,
		CheckpointBytes: 64 << 20,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// supportedTail names the highest of the usual percentiles that has at
// least ten samples beyond it, for the sample-count notes.
func supportedTail(n int) string {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p50", 0.5}} {
		if float64(n)*(1-p.q) >= 10 {
			return p.name
		}
	}
	return "none"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rssSampler records the highest resident set it sees while running,
// sampled from /proc/self/statm every few milliseconds. Unlike the
// process's high-water mark it covers only the measured phase, which is
// the same work on every run; set-up transients (the garbage of earlier
// set-ups, load buffers) would make the figure depend on GC timing.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	max  atomic.Int64 // pages since the last lap
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.observe()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	v := residentPages()
	for m := s.max.Load(); v > m && !s.max.CompareAndSwap(m, v); m = s.max.Load() {
	}
}

// lap returns the highest resident set (MiB) since the previous lap.
func (s *rssSampler) lap() float64 {
	s.observe()
	return float64(s.max.Swap(residentPages())*int64(os.Getpagesize())) / (1 << 20)
}

// peakMiB stops the sampler and returns the highest resident set seen
// since the last lap.
func (s *rssSampler) peakMiB() float64 {
	close(s.stop)
	<-s.done
	return s.lap()
}

func residentPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64)
	return n
}

// env is the environment fingerprint every result is stamped with, so
// results from different machines or commits are never compared silently.
type env struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the VCS revision the binary was built from ("" when the
	// source tree is not a git checkout); SourceSHA256 digests the Go
	// sources and go.mod, so it identifies the measured code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint() env {
	e := env{Go: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" && e.Commit != "" {
				e.Commit += "+dirty"
			}
		}
	}
	e.SourceSHA256 = sourceDigest(".")
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories such as the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
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
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
