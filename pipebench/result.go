package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: whether every correctness check passed,
// how many operations it attempted and how many failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	checks []string
	counts map[string]int // sample counts behind the medians and percentiles
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records that a correctness check ran; a failed check makes the
// run incorrect and is explained on standard error.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, name)
	if !ok {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "pipebench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
}

// failedMs is the latency recorded for a failed or refused query: slower
// than any limit a reader could set.
const failedMs = 1e9

// quantile returns the q-quantile of xs (nearest rank, xs unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a point-in-time reading of the Go runtime's allocation
// and CPU accounting; differences between two samples cover a phase.
type procSample struct {
	alloc   uint64
	gcCPU   float64
	totalCP float64
}

var procMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCP: s[2].Value.Float64()}
}

// since returns allocated bytes and the GC's share of CPU time between
// two samples.
func (p procSample) since(q procSample) (alloc uint64, gcFrac float64) {
	return p.alloc - q.alloc, frac(p.gcCPU-q.gcCPU, p.totalCP-q.totalCP)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// environment is the host record printed with every result.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"seed":       seed,
	}
}

// stealSeconds reads the host-wide steal time from /proc/stat (0 where
// it is not available).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
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

// commit names the source revision: run.sh passes it in
// PIPEBENCH_COMMIT; anything else reports "unknown".
func commit() string {
	if c := os.Getenv("PIPEBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
