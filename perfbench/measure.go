package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/xmldb"
)

// deployment is one workload deployed on one stack.
type deployment interface {
	// clients is the number of closed-loop clients.
	clients() int
	// step runs client c's next unit of work (one op, or one signed-vo
	// cycle) and records every op it contains into r.
	step(c int, r *recorder)
	// check runs the end-of-run correctness checks.
	check() error
	// probe exposes the program counters the per-layer metrics read.
	probe() probe
	close()
}

// probe is what a deployment exposes to the per-layer metrics.
type probe struct {
	dbs []*xmldb.DB
	// delivery snapshots the notification producer's DeliveryStats.
	delivery func() deliveryCounts
	// publishes counts events that had subscribers (Notify ops,
	// fan-out publishes).
	publishes func() int64
	// spreads returns first-to-last receipt times per publish, in ms.
	spreads func() []float64
	// deliveryInHandler is true when deliveries run inside a request
	// handler, so handler self time excludes their exchanges.
	deliveryInHandler bool
}

type deliveryCounts struct{ attempts, retries, deliveries, failures int64 }

// maxFailNotes bounds the failure messages kept per client.
const maxFailNotes = 4

// recorder is one client's tally. Only its own goroutine writes it.
type recorder struct {
	lat       []float64 // ms, completed ops only
	callNs    int64     // time inside client calls, completed ops
	waitNs    int64     // time waiting for notifications, completed ops
	attempted int
	failed    int
	wrong     int // failed a correctness check
	notes     []string

	// In the traced run, each op is a root span and cur tells the
	// client's transport which op its exchanges belong to.
	spans *spanLog
	cur   *atomic.Int64
	curID int64
}

// begin starts an op and returns its start time.
func (r *recorder) begin() time.Time {
	if r.cur != nil {
		r.curID = r.spans.newID()
		r.cur.Store(r.curID)
	}
	return time.Now()
}

// ok records a completed op: call is its time inside client calls,
// wait its time waiting for a notification.
func (r *recorder) ok(op string, start time.Time, call, wait time.Duration) {
	end := time.Now()
	r.attempted++
	r.lat = append(r.lat, float64(end.Sub(start))/1e6)
	r.callNs += int64(call)
	r.waitNs += int64(wait)
	if r.cur != nil {
		r.spans.addID(r.curID, "op."+op, 0, start, end)
	}
}

// fail records a failed op; wrong marks a failed correctness check. A
// failed op never enters the latency record.
func (r *recorder) fail(op string, err error, wrong bool) {
	r.attempted++
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.notes) < maxFailNotes {
		r.notes = append(r.notes, fmt.Sprintf("%s: %v", op, err))
	}
}

// timed runs one client call and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one closed-loop measurement produced.
type window struct {
	recs          []*recorder
	cpu           time.Duration
	mallocs       uint64
	allocBytes    uint64
	gcs           uint32
	heapBytes     uint64
	ops, attempts int
	failed, wrong int
	lat           []float64 // sorted, all clients
	wall          time.Duration
	callNs        int64
	waitNs        int64
	// refWall, refCPU and refLat are wall, CPU and latencies scaled to
	// the reference host speed, slice by slice, by the host probe's
	// readings; without a probe they equal the raw figures.
	refWall, refCPU time.Duration
	refLat          []float64 // sorted
}

// addSlice adds one slice's wall time, CPU time and latencies, measured
// while the host ran slowdown times slower than the reference, to the
// scaled figures: times are divided by slowdown.
func (w *window) addSlice(wall, cpu time.Duration, lat []float64, slowdown float64) {
	w.refWall += time.Duration(float64(wall) / slowdown)
	w.refCPU += time.Duration(float64(cpu) / slowdown)
	for _, l := range lat {
		w.refLat = append(w.refLat, l/slowdown)
	}
}

// probeSlice is the length of one timed slice of a probed window, and
// probesPerGap the probe runs between two slices.
const (
	probeSlice   = time.Second
	probesPerGap = 4
)

// runWindow drives every client of d in a closed loop until the
// deadline; a unit of work under way at the deadline runs to its end.
// before and after bracket the timed region for layer snapshots. With
// a host probe, the window is cut into slices of probeSlice, and the
// probe runs while the clients are paused between them; wall, CPU and
// allocations count the slices only.
func runWindow(d deployment, dur time.Duration, tr *tracer, hp *hostProbe, before, after func()) (window, error) {
	n := d.clients()
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{lat: make([]float64, 0, 1<<14)}
		if tr != nil {
			recs[i].spans, recs[i].cur = &tr.spans, tr.cur(i)
		}
	}
	slices, slice := 1, dur
	if hp != nil {
		slices = max(1, int(dur/probeSlice))
		slice = dur / time.Duration(slices)
	}
	w := window{recs: recs}
	// gaps[k] is the mean probe slowdown of the gap before slice k.
	var gaps []float64
	gap := func() error {
		if hp == nil {
			return nil
		}
		sd, err := hp.gap()
		gaps = append(gaps, sd)
		return err
	}
	runtime.GC()
	if before != nil {
		before()
	}
	if err := gap(); err != nil {
		return w, err
	}
	var m0, m1 runtime.MemStats
	var raw []float64 // this slice's latencies, all clients
	for k := 0; k < slices; k++ {
		marks := make([]int, n)
		for i, r := range recs {
			marks[i] = len(r.lat)
		}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(slice)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					d.step(c, recs[c])
				}
			}(i)
		}
		wg.Wait()
		wall, cpu := time.Since(start), cpuTime()-cpu0
		runtime.ReadMemStats(&m1)
		w.wall += wall
		w.cpu += cpu
		w.mallocs += m1.Mallocs - m0.Mallocs
		w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		w.gcs += m1.NumGC - m0.NumGC
		if err := gap(); err != nil {
			return w, err
		}
		// The slice ran at the mean of the readings on either side.
		sd := 1.0
		if hp != nil {
			sd = (gaps[k] + gaps[k+1]) / 2
		}
		raw = raw[:0]
		for i, r := range recs {
			raw = append(raw, r.lat[marks[i]:]...)
		}
		w.addSlice(wall, cpu, raw, sd)
	}
	if after != nil {
		after()
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so the heap read is what the
	// program keeps live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	w.heapBytes = m1.HeapAlloc
	for _, r := range recs {
		w.lat = append(w.lat, r.lat...)
		w.attempts += r.attempted
		w.failed += r.failed
		w.wrong += r.wrong
		w.callNs += r.callNs
		w.waitNs += r.waitNs
	}
	w.ops = len(w.lat)
	sort.Float64s(w.lat)
	sort.Float64s(w.refLat)
	return w, nil
}

// raw is the unscaled counterpart of endToEnd, printed for reference.
func (w window) raw() map[string]float64 {
	ops := float64(max(w.ops, 1))
	return map[string]float64{
		"ops_per_s":     float64(w.ops) / w.wall.Seconds(),
		"p50_ms":        percentile(w.lat, 0.50),
		"p90_ms":        percentile(w.lat, 0.90),
		"cpu_ms_per_op": float64(w.cpu) / 1e6 / ops,
	}
}

// endToEnd turns a window into the per-stack end-to-end metrics, its
// timings scaled to the reference host speed.
func (w window) endToEnd() map[string]float64 {
	ops := float64(max(w.ops, 1))
	return map[string]float64{
		"ops_per_s":     float64(w.ops) / w.refWall.Seconds(),
		"p50_ms":        percentile(w.refLat, 0.50),
		"p90_ms":        percentile(w.refLat, 0.90),
		"cpu_ms_per_op": float64(w.refCPU) / 1e6 / ops,
		"allocs_per_op": float64(w.mallocs) / ops,
	}
}

// stageSnap captures the obs pipeline-stage histograms and counters.
type stageSnap struct {
	stages map[string]obs.HistogramSnapshot
	values map[string]int64
}

func snapStages() stageSnap {
	s := stageSnap{stages: map[string]obs.HistogramSnapshot{}, values: obs.Values()}
	for name, h := range obs.Stages() {
		s.stages[name] = h.Snapshot()
	}
	return s
}

// sumUs is the stage's total observed time in µs since prev.
func (s stageSnap) sumUs(prev stageSnap, stage string) float64 {
	return s.stages[stage].Delta(prev.stages[stage]).Sum * 1e6
}

func (s stageSnap) count(prev stageSnap, name string) int64 {
	return s.values[name] - prev.values[name]
}
