// Command perfbench is the overlay repository's benchmark. It runs one
// workload — build, churn or serve — for a fixed time at a given seed,
// checks the program's outputs, and prints its metrics as the last
// line of standard output:
//
//	perfbench -workload churn -seed 3 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run instead replays every layer with spans around each call and
// prints per-layer metrics, writing the spans to a file under -out.
// perfbench/run.sh builds the binary from the checkout and runs it;
// README.md in this directory lists the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	duration time.Duration
}

// report collects a run's counts, output-check failures and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	// detail holds the workload's own figures under the names its
	// documentation uses; it is printed on the line before the result.
	detail map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records a metric for the result line; a value that was never
// measured fails the run instead.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no measured value", name)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a figure on the detail line only.
func (r *report) note(name string, v any) { r.detail[name] = v }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak tracks the largest HeapInuse seen at operation boundaries.
// It swings with the collector's pacing, so it is reported on the
// detail line; the result line carries liveHeapMB.
type heapPeak struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapPeak) note() {
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64()+h.samples[1].Value.Uint64())
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// liveHeapMB collects garbage and returns the heap still reachable: at
// the end of a run, the memory the workload's state holds.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostInfo stamps every result with what ran it.
type hostInfo struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	// StealPct is the share of the host's CPU time the hypervisor gave
	// to other guests during the run; runs with a large share measured
	// contention, not the program.
	StealPct float64 `json:"steal_pct"`
}

func collectHost(workload string, seed uint64, seconds float64, trace bool, steal float64) hostInfo {
	return hostInfo{
		StealPct:     steal,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
	}
}

// cpuTicks reads the machine-wide steal and total CPU ticks.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit, or "none" when the working
// directory is not a git checkout; sourceDigest identifies the sources
// either way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// dot-directories (build output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workloads maps each -workload name to its timed run.
var workloads = map[string]func(runConfig, *report){
	"build": runBuild,
	"churn": runChurn,
	"serve": runServe,
}

func main() {
	workload := flag.String("workload", "", "build, churn or serve")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = timed end-to-end run")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	timed, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload build|churn|serve -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second))}
	rep := newReport()
	steal0, total0 := cpuTicks()
	var spans []span
	if *trace == 1 {
		spans = runTraced(cfg, rep)
	} else {
		timed(cfg, rep)
	}
	steal1, total1 := cpuTicks()
	steal := 0.0
	if total1 > total0 {
		steal = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	host := collectHost(*workload, *seed, *seconds, *trace == 1, steal)
	if *trace == 1 {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			rep.fail("span file: %v", err)
		} else if err := writeSpans(path, host, spans); err != nil {
			rep.fail("span file: %v", err)
		} else {
			rep.note("span_file", path)
		}
	}
	emit(host, rep)
}

// emit prints the detail line and the result line, and exits non-zero
// when an output check failed.
func emit(host hostInfo, rep *report) {
	if rep.attempted == 0 {
		rep.fail("no operation was attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if detail, err := json.Marshal(map[string]any{"host": host, "detail": rep.detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: detail:", err)
	} else {
		fmt.Println(string(detail))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}
