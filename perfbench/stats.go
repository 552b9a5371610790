package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailLevels are the percentile levels the tail rule chooses from.
var tailLevels = []float64{50, 90, 99, 99.9}

// percentile is the nearest-rank percentile of xs (unsorted; not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tail applies the tail rule: the highest level in tailLevels that
// leaves at least ten samples beyond it. Below twenty samples no level
// qualifies and the median stands in, labelled as such.
func tail(xs []float64) (value, level float64) {
	level = 50
	for _, p := range tailLevels {
		if float64(len(xs))*(1-p/100) >= 10 {
			level = p
		}
	}
	return percentile(xs, level), level
}

// spread is the interquartile range of xs as a share of its median, the
// same statistic the benchmark's stability check applies across runs.
// It is -1 when there are fewer than four samples or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return -1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	if med == 0 {
		return -1
	}
	return (q3 - q1) / math.Abs(med)
}

// quartiles interpolates like Python's statistics.quantiles(n=4)
// (the "exclusive" method) over sorted s, which has at least two
// elements.
func quartiles(s []float64) (q1, med, q3 float64) {
	at := func(p float64) float64 {
		m := float64(len(s)+1) * p
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		d := m - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where the file is unavailable.
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
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
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
