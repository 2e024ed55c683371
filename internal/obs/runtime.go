package obs

import (
	"bufio"
	"fmt"
	"math"
	"runtime/metrics"
	"strconv"
)

// Go runtime health under the ogsa_runtime_* family, read through
// runtime/metrics and sampled lazily: nothing is collected between
// scrapes, so registering these costs the steady state exactly zero.
// The gauges answer "is the fleet leaking goroutines/heap", the GC
// pause histogram answers "are collection pauses eating into the
// latency SLO" — both per instance and, through /federate, fleet-wide.

// runtimeUint64 returns a GaugeFunc reader for one uint64
// runtime/metrics sample.
func runtimeUint64(sample string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: sample}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
}

// gcPauseBounds are the fixed bounds the runtime's GC pause histogram
// is re-bucketed into: runtime/metrics uses hundreds of fine-grained
// buckets that differ across Go versions, while federation needs
// stable, bucket-aligned bounds. Pauses span ~10µs (healthy) to the
// multi-ms territory a latency SLO cares about.
var gcPauseBounds = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// runtimeHist exposes a runtime/metrics Float64Histogram re-bucketed
// onto fixed bounds, sampled at scrape time.
type runtimeHist struct {
	name, help, sample string
	bounds             []float64
}

func newRuntimeHist(name, help, sample string, bounds []float64) *runtimeHist {
	h := &runtimeHist{name: name, help: help, sample: sample, bounds: bounds}
	Default.register(h)
	return h
}

func (h *runtimeHist) metricName() string   { return h.name }
func (h *runtimeHist) metricLabels() string { return "" }
func (h *runtimeHist) metricHelp() string   { return h.help }
func (h *runtimeHist) metricType() string   { return "histogram" }
func (h *runtimeHist) writeSamples(w *bufio.Writer) {
	s := []metrics.Sample{{Name: h.sample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	rh := s[0].Value.Float64Histogram()
	counts := make([]int64, len(h.bounds)+1)
	var sum float64
	var total int64
	for i, c := range rh.Counts {
		if c == 0 {
			continue
		}
		// Runtime bucket i covers [Buckets[i], Buckets[i+1]); place its
		// whole count in the first fixed bucket that contains its upper
		// edge, and estimate the sum from the bucket midpoint (clamping
		// the ±Inf edges to their finite neighbor).
		lo, hi := rh.Buckets[i], rh.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		j := 0
		for j < len(h.bounds) && h.bounds[j] < hi {
			j++
		}
		counts[j] += int64(c)
		sum += ((lo + hi) / 2) * float64(c)
		total += int64(c)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", h.name, total)
}

var (
	_ = NewGaugeFunc("ogsa_runtime_goroutines", "",
		"live goroutines (runtime/metrics, sampled at scrape)",
		runtimeUint64("/sched/goroutines:goroutines"))
	_ = NewGaugeFunc("ogsa_runtime_heap_inuse_bytes", "",
		"bytes of heap occupied by live objects plus unswept spans",
		runtimeUint64("/memory/classes/heap/objects:bytes"))
	_ = newRuntimeHist("ogsa_runtime_gc_pause_seconds",
		"stop-the-world GC pause durations, re-bucketed from runtime/metrics",
		"/gc/pauses:seconds", gcPauseBounds)
)
