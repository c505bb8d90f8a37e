package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it: fewer and the "tail" is one or two unlucky samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it. Nearest
// rank never interpolates between two samples, so on a fixed operation
// mix the quantile always lands on the same kind of operation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// kindMedian is the geometric mean over operation kinds of each kind's
// median. A median pooled over a mix of a few kinds with a few samples
// each lands in the gap between two kinds, and jumps from one kind to
// the other when their times cross; this one moves with every kind and
// with none by more than its share.
func kindMedian(byKind map[string][]float64) float64 {
	logs := 0.0
	for _, xs := range byKind {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(byKind)))
}

// slowestKind is the largest of the kinds' medians: the tail of a mix
// with too few samples for a percentile to have minBeyond above it.
// The pooled top of such a mix is the largest one or two samples of
// its two slowest kinds, one unlucky operation.
func slowestKind(byKind map[string][]float64) float64 {
	slowest := 0.0
	for _, xs := range byKind {
		slowest = math.Max(slowest, median(xs))
	}
	return slowest
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999}

// tailPercentile returns the highest percentile of tailLadder whose
// nearest-rank sample has at least minBeyond samples above it in a run
// of n samples, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		r := int(math.Ceil(q * float64(n)))
		if n-r >= minBeyond {
			best = q
		}
	}
	return best
}

// peakRSS reads the peak resident set size (VmHWM) of a process from
// /proc; pid "self" is this process.
func peakRSS(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
