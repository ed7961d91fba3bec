package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail percentile
// for it to be worth reading (choosing-metrics guide, section 1).
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	return quantileSorted(sorted(xs), 0.5)
}

// quantileSorted interpolates the q-quantile (0..1) of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), the rule the acceptance driver
// applies to a set of runs. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail is a latency distribution's reported tail: the highest of the usual
// percentiles that still has tailBeyond samples beyond it.
type tail struct {
	Value      float64
	Percentile float64 // 50 when there are too few samples for any tail
	Samples    int
}

// tailLadder is the percentiles a tail may be reported at, in per mille so
// the count of samples beyond one is exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile reports the highest rung of tailLadder, no higher than
// capPct, with at least tailBeyond samples beyond it, falling back to the
// median. A workload caps the rung at the one its usual sample count clears
// with room to spare, so the metric stays the same statistic from run to run
// while the count wobbles.
func tailPercentile(xs []float64, capPct float64) tail {
	s := sorted(xs)
	rung := 500
	for _, pm := range tailLadder {
		if float64(pm) <= capPct*10 && len(s)*(1000-pm) >= tailBeyond*1000 {
			rung = pm
			break
		}
	}
	return tail{Value: quantileSorted(s, float64(rung)/1000), Percentile: float64(rung) / 10, Samples: len(s)}
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durations converts to float64 through conv (seconds, millis, micros).
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
