package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule's sample floor: a reported
// percentile must have at least this many samples above it, so a tail
// figure is never one or two outliers.
const minBeyond = 10

// pctl is one reported percentile: the value, the percentile actually
// used (the nominal one, or the highest the sample supports), and the
// number of samples it was taken from.
type pctl struct {
	Value float64
	Q     float64
	N     int
}

func (p pctl) String() string {
	return fmt.Sprintf("%.4g (p%.4g of n=%d)", p.Value, 100*p.Q, p.N)
}

// percentile applies the benchmark's percentile rule to xs: it reports
// quantile q, or — when fewer than minBeyond samples would lie beyond
// it — the highest quantile that keeps minBeyond samples beyond. It
// fails when the sample cannot support any percentile (n ≤ minBeyond).
// The value is the nearest-rank order statistic; xs is not modified.
func percentile(xs []float64, q float64) (pctl, error) {
	n := len(xs)
	if n <= minBeyond {
		return pctl{N: n}, fmt.Errorf("percentile: %d samples cannot support p%g with %d beyond", n, 100*q, minBeyond)
	}
	if most := 1 - float64(minBeyond)/float64(n); q > most {
		q = most
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Nearest rank: the smallest value with at least q·n samples at or
	// below it. The epsilon keeps q·n that is integral in exact
	// arithmetic from rounding one rank up.
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return pctl{Value: sorted[idx], Q: q, N: n}, nil
}

// sample is one latency observation (ms) at its due time.
type sample struct {
	at time.Duration
	ms float64
}

// maxWindows bounds the windows a phase's percentiles are taken over.
const maxWindows = 5

// windowed reports quantile q of the samples as the median, over
// consecutive windows of the phase (equal spans of due time), of each
// window's percentile. It uses as many windows — at most maxWindows —
// as leave each enough samples for q itself; with fewer
// samples it takes one window and the percentile rule. The median over
// windows keeps one stall (a collector cycle, a noisy neighbour) from
// setting a run's tail on its own.
func windowed(xs []sample, span time.Duration, q float64) (p pctl, windows int, err error) {
	need := int(math.Ceil(minBeyond / (1 - q)))
	w := max(min(maxWindows, len(xs)/need), 1)
	parts := make([][]float64, w)
	for _, x := range xs {
		i := min(int(int64(x.at)*int64(w)/int64(max(span, 1))), w-1)
		parts[i] = append(parts[i], x.ms)
	}
	ps := make([]pctl, w)
	for i, part := range parts {
		if ps[i], err = percentile(part, q); err != nil {
			return pctl{}, w, err
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Value < ps[j].Value })
	p = ps[w/2]
	if w%2 == 0 {
		p.Value = (ps[w/2-1].Value + ps[w/2].Value) / 2
	}
	p.N = len(xs)
	return p, w, nil
}

// median is percentile(xs, 0.5) for internal per-layer figures, where
// a short sample is reported rather than refused.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// span is one recorded interval of the traced run. Times are offsets
// from the phase start on the harness's monotonic clock; Parent is the
// index of the causing span in the same slice, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its child spans (overlapping children are
// counted once; a child sticking out of its parent counts only inside
// it).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered is the length of the union of the intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, in []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(in))
	for _, c := range in {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	end = lo
	for _, x := range iv {
		a := max(x[0], end)
		if x[1] > a {
			total += x[1] - a
			end = x[1]
		}
	}
	return total
}

// dueLatency is the open-loop latency of one request: from the time it
// was due to be sent — not the time it was sent — to the time its
// response was decoded, so a stall is charged to every request queued
// behind it.
func dueLatency(due, done time.Duration) time.Duration { return done - due }

// genLag is how late the generator itself sent a request: the send time
// minus the later of the due time and the moment a connection became
// free. Waiting for a busy connection is the system's queue, not the
// generator's lateness.
func genLag(due, free, sent time.Duration) time.Duration { return sent - max(due, free) }
