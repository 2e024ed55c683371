package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/xmldb"
)

// setupRepeats is how many times a child deploys, populates and warms
// up; setup_s is the median, and the last deployment is measured.
const setupRepeats = 5

// deployer builds the workload on the child's stack; k numbers the
// deployments of one process.
type deployer func(tr *tracer, k int) (deployment, error)

func newDeployer(o options) (deployer, func(), error) {
	switch o.workload {
	case "counter-mix":
		return func(tr *tracer, _ int) (deployment, error) { return deployCounter(o.child, o.seed, counterClients, tr) }, func() {}, nil
	case "fanout-1k":
		return func(tr *tracer, _ int) (deployment, error) { return deployFanout(o.child, o.seed, tr) }, func() {}, nil
	case "signed-vo":
		// The test PKI is minted before any set-up clock starts: RSA key
		// generation is the slowest and noisiest step, and a real VO
		// has its credentials before it deploys.
		fix, err := core.NewFixture(container.SecuritySign, netlat.CoLocated)
		if err != nil {
			return nil, nil, err
		}
		dir, err := runDir()
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) } //nolint:errcheck // scratch
		return func(tr *tracer, k int) (deployment, error) {
			return deployVO(o.child, o.seed, fix, filepath.Join(dir, strconv.Itoa(k)), tr)
		}, cleanup, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
}

func runChild(o options) (stackResult, error) {
	deploy, cleanup, err := newDeployer(o)
	if err != nil {
		return stackResult{}, err
	}
	defer cleanup()
	dur := time.Duration(o.seconds * float64(time.Second))
	res := stackResult{Stack: o.child}
	if o.trace {
		return res, runTraced(o, deploy, dur, &res)
	}
	hp, err := newHostProbe()
	if err != nil {
		return res, err
	}
	defer hp.close()
	// Each set-up is timed between two probe gaps and scaled by their
	// mean, as the slices of the window are.
	prev, err := hp.gap()
	if err != nil {
		return res, err
	}
	var d deployment
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = deploy(nil, k); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		next, err := hp.gap()
		if err != nil {
			d.close()
			return res, err
		}
		res.RawSetups = append(res.RawSetups, took)
		res.Setups = append(res.Setups, took/((prev+next)/2))
		prev = next
	}
	w, err := runWindow(d, dur, nil, hp, nil, nil)
	if err != nil {
		d.close()
		return res, err
	}
	fillCounts(&res, w, d.check())
	d.close()
	res.Metrics = w.endToEnd()
	res.Raw = w.raw()
	res.Slowdown = hp.slowdown(0)
	return res, nil
}

func fillCounts(res *stackResult, w window, check error) {
	res.Attempted, res.Failed, res.Wrong = w.attempts, w.failed, w.wrong
	for _, r := range w.recs {
		res.Notes = append(res.Notes, r.notes...)
	}
	if check != nil {
		res.Check = check.Error()
	}
}

// runTraced measures half the window untraced, for the p50 that
// obs.overhead_pct compares against, then redeploys with every wrapper
// installed and obs enabled and measures the other half.
func runTraced(o options, deploy deployer, dur time.Duration, res *stackResult) error {
	d, err := deploy(nil, 0)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	plain, err := runWindow(d, dur/2, nil, nil, nil, nil)
	if err != nil {
		return err
	}
	d.close()

	obs.Enable()
	defer obs.Disable()
	tr := &tracer{}
	if d, err = deploy(tr, 1); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	pb := d.probe()
	var l0, l1 layerSnap
	tr.spans.start()
	w, err := runWindow(d, dur/2, tr, nil, func() { l0 = snapLayers(tr, pb) }, func() { l1 = snapLayers(tr, pb) })
	if err != nil {
		return err
	}
	fillCounts(res, w, d.check())
	d.close()
	res.Metrics = layerMetrics(o.child, w, plain, l0, l1, pb)

	dir := filepath.Join(scratchDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res.Spans = filepath.Join(dir, fmt.Sprintf("%s.%s.seed%d.jsonl", o.workload, o.child, o.seed))
	return tr.spans.write(res.Spans)
}

// layerSnap is every counter the per-layer metrics difference.
type layerSnap struct {
	top, delivery, tcp, outcall, backend meterSnap
	stages                               stageSnap
	db                                   xmldb.Stats
	delivered                            deliveryCounts
	publishes                            int64
}

func snapLayers(tr *tracer, pb probe) layerSnap {
	s := layerSnap{
		top: tr.top.snap(), delivery: tr.delivery.snap(), tcp: tr.tcp.snap(),
		outcall: tr.outcall.snap(), backend: tr.backend.snap(),
		stages: snapStages(),
	}
	for _, db := range pb.dbs {
		st := db.Stats()
		s.db.Creates += st.Creates
		s.db.Reads += st.Reads
		s.db.Updates += st.Updates
		s.db.Deletes += st.Deletes
		s.db.Queries += st.Queries
		s.db.Parses += st.Parses
	}
	if pb.delivery != nil {
		s.delivered = pb.delivery()
	}
	if pb.publishes != nil {
		s.publishes = pb.publishes()
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one stack. Times are µs
// per op unless named otherwise. The self times partition the op:
// client (call minus its exchanges), transport (HTTP exchanges minus
// the server dispatch inside them), dispatch self, verify, handler self
// (handler minus storage and minus the exchanges it waits on),
// storage self, backend, serialize, TCP frame writes, and the wait for
// a notification after the call returned.
func layerMetrics(stack string, w, plain window, l0, l1 layerSnap, pb probe) map[string]float64 {
	ops := float64(max(w.ops, 1))
	top, del, tcp := l1.top.sub(l0.top), l1.delivery.sub(l0.delivery), l1.tcp.sub(l0.tcp)
	out, be := l1.outcall.sub(l0.outcall), l1.backend.sub(l0.backend)
	stage := func(s string) float64 { return l1.stages.sumUs(l0.stages, s) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	dispatch, verify, handler := stage("dispatch"), stage("verify"), stage("handler")
	storage, serialize := stage("storage"), stage("serialize")
	nested := us(out.nanos)
	if pb.deliveryInHandler {
		nested += us(del.nanos + tcp.nanos)
	}

	dl := deliveryLayer(stack)
	m := map[string]float64{
		"container.client_us":        (us(w.callNs) - us(top.nanos)) / ops,
		"container.transport_us":     (us(top.nanos+del.nanos+out.nanos) - dispatch) / ops,
		"container.dispatch_self_us": (dispatch - verify - handler - serialize) / ops,
		"wssec.verify_us":            verify / ops,
		"handler.self_us":            (handler - storage - nested) / ops,
		"xmldb.storage_self_us":      (storage - us(be.nanos)) / ops,
		"xmldb.backend_us_per_op":    us(be.nanos) / ops,
		"container.serialize_us":     serialize / ops,
	}
	m[dl+".tcp_us"] = us(tcp.nanos) / ops
	m[dl+".wait_us"] = us(w.waitNs) / ops
	var sum float64
	for _, n := range selfTimes(stack) {
		sum += m[n]
	}
	opUs := 0.0
	for _, v := range w.lat {
		opUs += v * 1e3
	}
	opUs /= ops

	db := l1.db
	db.Creates -= l0.db.Creates
	db.Reads -= l0.db.Reads
	db.Updates -= l0.db.Updates
	db.Deletes -= l0.db.Deletes
	db.Queries -= l0.db.Queries
	db.Parses -= l0.db.Parses
	dv := deliveryCounts{
		l1.delivered.attempts - l0.delivered.attempts, l1.delivered.retries - l0.delivered.retries,
		l1.delivered.deliveries - l0.delivered.deliveries, l1.delivered.failures - l0.delivered.failures,
	}
	pubs := float64(l1.publishes - l0.publishes)
	var spread float64
	if pb.spreads != nil {
		spread = median(pb.spreads())
	}
	m["container.calls_per_op"] = float64(top.n) / ops
	m["container.exchange_us"] = us(top.nanos) / ops
	m["container.wire_kb_per_op"] = float64(top.bytes) / 1024 / ops
	m["container.conns_dialed_per_op"] = float64(top.dialed+del.dialed+out.dialed+tcp.dialed) / ops
	m["xmldb.reads_per_op"] = float64(db.Reads) / ops
	m["xmldb.writes_per_op"] = float64(db.Creates+db.Updates+db.Deletes) / ops
	m["xmldb.queries_per_op"] = float64(db.Queries) / ops
	m["xmldb.parses_per_read"] = ratio(float64(db.Parses), float64(db.Reads))
	m[dl+".exchanges_per_publish"] = ratio(float64(del.n+tcp.n), pubs)
	m[dl+".attempts_per_delivery"] = ratio(float64(dv.attempts), float64(dv.deliveries))
	m[dl+".failed_deliveries"] = float64(dv.failures)
	m[dl+".exchange_us"] = ratio(us(del.nanos+tcp.nanos), float64(del.n+tcp.n))
	m[dl+".spread_ms"] = spread
	m[dl+".allocs_per_delivery"] = ratio(float64(w.mallocs), float64(dv.deliveries))
	m["fanout.tasks_per_publish"] = ratio(float64(l1.stages.count(l0.stages, "ogsa_fanout_tasks_total")), pubs)
	m["gridbox.outcalls_per_op"] = float64(out.n) / ops
	m["gridbox.outcall_ms_per_op"] = float64(out.nanos) / 1e6 / ops
	m["runtime.alloc_kb_per_op"] = float64(w.allocBytes) / 1024 / ops
	m["runtime.gc_per_kop"] = float64(w.gcs) * 1000 / ops
	m["runtime.heap_mb"] = float64(w.heapBytes) / (1 << 20)
	m["obs.overhead_pct"] = 100 * ratio(percentile(w.lat, 0.5)-percentile(plain.lat, 0.5), percentile(plain.lat, 0.5))
	m["trace.residual_pct"] = 100 * ratio(opUs-sum, opUs)
	m["trace.op_us"] = opUs
	return m
}

// deliveryLayer names the stack's notification module.
func deliveryLayer(stack string) string {
	if stack == stackWSRF {
		return "wsn"
	}
	return "wse"
}

// selfTimes names the per-op self times that partition an op.
func selfTimes(stack string) []string {
	dl := deliveryLayer(stack)
	return []string{
		"container.client_us", "container.transport_us", "container.dispatch_self_us",
		"wssec.verify_us", "handler.self_us", "xmldb.storage_self_us", "xmldb.backend_us_per_op",
		"container.serialize_us", dl + ".tcp_us", dl + ".wait_us",
	}
}

// unitOf names a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "ops_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_op"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KiB"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	}
	return "count"
}

// printSelfTimes lists each stack's layer self times against the
// measured op time.
func printSelfTimes(w io.Writer, results []stackResult) {
	for _, r := range results {
		names := selfTimes(r.Stack)
		fmt.Fprintf(w, "%s self times per op (µs), against op time %.1f µs:\n", r.Stack, r.Metrics["trace.op_us"])
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %12.2f\n", n, r.Metrics[n])
		}
		fmt.Fprintf(w, "  %-32s %12.2f %%\n  %-32s %12.2f %%\n", "residual", r.Metrics["trace.residual_pct"],
			"obs overhead (p50)", r.Metrics["obs.overhead_pct"])
	}
}
