package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of xs by the nearest-rank rule.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that leaves at
// least ten samples beyond it, and that percentile's value.
func tailPercentile(xs []float64) (p, v float64) {
	n := len(xs)
	for _, p := range tailLadder {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p, nearestRank(xs, p)
		}
	}
	return 50, median(xs)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB, or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS lowers the kernel's peak-RSS mark to the current resident
// size, so the next peakRSSMB covers one operation. It reports false where
// the kernel does not support it; the mark then covers the whole run.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// allocMeter measures heap bytes allocated and GC cycles completed between
// start and stop. ReadMemStats stops the world briefly, so it is only used
// on traced operations.
type allocMeter struct{ bytes, gcs uint64 }

func (m *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.bytes, m.gcs = ms.TotalAlloc, uint64(ms.NumGC)
}

// stop returns MiB allocated and GC cycles since start.
func (m *allocMeter) stop() (mb float64, gcs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-m.bytes) / (1 << 20), float64(uint64(ms.NumGC) - m.gcs)
}

// coldStart collects garbage and returns the freed memory to the operating
// system, so every operation starts from the same heap state and pays for
// its memory the way a fresh process would. Called outside timed intervals.
func coldStart() { debug.FreeOSMemory() }
