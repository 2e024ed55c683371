package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/gridbox"
	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
)

func TestSameSeedSameOps(t *testing.T) {
	perm := permutation(7, 0, counterPopulation)
	if !equalInts(perm, permutation(7, 0, counterPopulation)) {
		t.Fatal("same seed gave two different permutations")
	}
	for c := 0; c < counterClients; c++ {
		a, b := newOpStream(7, c, perm), newOpStream(7, c, perm)
		other := newOpStream(8, c, permutation(8, 0, counterPopulation))
		same, differ := true, false
		counts := map[opKind]int{}
		const n = 20000
		for i := 0; i < n; i++ {
			x, y, z := a.next(), b.next(), other.next()
			same = same && x == y
			differ = differ || x != z
			counts[x.kind]++
		}
		if !same {
			t.Fatalf("client %d: same seed gave two different op sequences", c)
		}
		if !differ {
			t.Fatalf("client %d: seeds 7 and 8 gave the same op sequence", c)
		}
		for k, w := range counterWeights {
			share := float64(counts[opKind(k)]) / n * 100
			if share < float64(w)-1.5 || share > float64(w)+1.5 {
				t.Errorf("client %d: %s is %.1f%% of ops, want %d%%", c, opKind(k), share, w)
			}
		}
	}
}

func TestClientsDrawDifferentOps(t *testing.T) {
	perm := permutation(3, 0, counterPopulation)
	a, b := newOpStream(3, 0, perm), newOpStream(3, 1, perm)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			return
		}
	}
	t.Fatal("two clients drew identical op sequences")
}

func TestPercentile(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		v    []float64
		q    float64
		want float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.90, 90},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{4}, 0.5, 4},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.v, c.q); got != c.want {
			t.Errorf("percentile(%d values, %g) = %g, want %g", len(c.v), c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g, want 2.5", got)
	}
}

// sweptCollection is the WSRF VO's reservation collection.
const sweptCollection = "wsrf-reservations"

// observed is what a short sequential run did to the program, as the
// program itself counts it.
type observed struct {
	db        xmldb.Stats
	delivered int64
	dialed    int64
	failed    int
}

// runSequential deploys with or without the tracer's wrappers and runs
// one client for a fixed number of steps. One client keeps every count
// deterministic, so the two runs must agree exactly.
//
// The WSRF VO's reservation sweeper reads its collection on a 1 s
// timer, so reads of that collection depend on elapsed time and are
// left out.
func runSequential(t *testing.T, deploy func(tr *tracer) (deployment, error), traced bool, steps int) observed {
	t.Helper()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	obs.Enable()
	defer obs.Disable()
	dialed0 := obs.DeliveryConnsDialed.Value()
	d, err := deploy(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := &recorder{}
	for i := 0; i < steps; i++ {
		d.step(0, r)
	}
	if err := d.check(); err != nil {
		t.Errorf("end-of-run check: %v", err)
	}
	o := observed{failed: r.failed, dialed: obs.DeliveryConnsDialed.Value() - dialed0}
	pb := d.probe()
	for _, db := range pb.dbs {
		s := db.Stats()
		s.Reads -= db.CollectionStats(sweptCollection).Reads
		o.db.Creates += s.Creates
		o.db.Reads += s.Reads
		o.db.Updates += s.Updates
		o.db.Deletes += s.Deletes
		o.db.Queries += s.Queries
		o.db.Parses += s.Parses
	}
	if pb.delivery != nil {
		o.delivered = pb.delivery().deliveries
	}
	for _, n := range r.notes {
		t.Log(n)
	}
	return o
}

// TestWrappersTransparent: the traced run's transport, backend and
// connection wrappers change nothing the program does.
func TestWrappersTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload twice")
	}
	fix, err := core.NewFixture(container.SecuritySign, netlat.CoLocated)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, st := range stacks {
		cases := []struct {
			name   string
			steps  int
			deploy func(tr *tracer) (deployment, error)
			// Pooled fan-out deliveries dial as many connections as
			// workers happen to overlap, so only the other workloads
			// compare connections.
			conns bool
		}{
			{"counter-mix", 400, func(tr *tracer) (deployment, error) { return deployCounter(st, 5, 1, tr) }, true},
			{"fanout-1k", 3, func(tr *tracer) (deployment, error) { return deployFanout(st, 5, tr) }, false},
			{"signed-vo", 4, func(tr *tracer) (deployment, error) {
				return deployVO(st, 5, fix, filepath.Join(dir, st, time.Now().Format("150405.000000000")), tr)
			}, true},
		}
		for _, c := range cases {
			t.Run(c.name+"/"+st, func(t *testing.T) {
				plain := runSequential(t, c.deploy, false, c.steps)
				traced := runSequential(t, c.deploy, true, c.steps)
				if plain.failed != 0 || traced.failed != 0 {
					t.Fatalf("failed ops: %d plain, %d traced", plain.failed, traced.failed)
				}
				if plain.db != traced.db {
					t.Errorf("DB.Stats: plain %+v, traced %+v", plain.db, traced.db)
				}
				if plain.delivered != traced.delivered {
					t.Errorf("deliveries: plain %d, traced %d", plain.delivered, traced.delivered)
				}
				if c.conns && plain.dialed != traced.dialed {
					t.Errorf("delivery connections dialed: plain %d, traced %d", plain.dialed, traced.dialed)
				}
			})
		}
	}
}

// TestSmoke runs every workload on both stacks as the benchmark does,
// briefly, and requires every correctness check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // restores the test's own cwd
	for _, wl := range workloads {
		for _, st := range stacks {
			t.Run(wl+"/"+st, func(t *testing.T) {
				o := options{workload: wl, seed: 2, seconds: 0.5, child: st}
				res, err := runChild(o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Wrong != 0 || res.Check != "" {
					t.Fatalf("failed=%d wrong=%d check=%q notes=%q", res.Failed, res.Wrong, res.Check, res.Notes)
				}
				if res.Attempted == 0 || res.Metrics["ops_per_s"] <= 0 || len(res.Setups) != setupRepeats {
					t.Fatalf("no work measured: %+v", res)
				}
			})
		}
	}
}

// TestReportLastLine: the verdict is the last line, with exactly the
// keys the benchmark contract names, and setup_s sums the stacks'
// median set-up times.
func TestReportLastLine(t *testing.T) {
	results := []stackResult{
		{Stack: stackWSRF, Attempted: 10, Failed: 1, Setups: []float64{3, 1, 2},
			Metrics: map[string]float64{"p50_ms": 1.5, "ops_per_s": 100}},
		{Stack: stackWST, Attempted: 20, Setups: []float64{1, 1, 5},
			Metrics: map[string]float64{"p50_ms": 1.2, "ops_per_s": 120}},
	}
	var out bytes.Buffer
	if err := report(&out, options{workload: "counter-mix"}, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var v map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatal(err)
	}
	if len(v) != 4 || v["correct"] == nil || v["attempted"] == nil || v["failed"] == nil || v["metrics"] == nil {
		t.Fatalf("verdict keys: %s", lines[len(lines)-1])
	}
	var full verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &full); err != nil {
		t.Fatal(err)
	}
	if !full.Correct || full.Attempted != 30 || full.Failed != 1 {
		t.Errorf("verdict %+v", full)
	}
	if m := full.Metrics["setup_s"]; m.Value != 3 || m.Unit != "s" {
		t.Errorf("setup_s = %+v, want 2+1 s", m)
	}
	if m := full.Metrics["wst.ops_per_s"]; m.Value != 120 || m.Unit != "1/s" {
		t.Errorf("wst.ops_per_s = %+v", m)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEndToEndPerOpRates(t *testing.T) {
	w := window{ops: 4, lat: []float64{1, 2, 3, 4}, wall: 2 * time.Second, cpu: 8 * time.Millisecond, mallocs: 400}
	w.addSlice(2*time.Second, 8*time.Millisecond, w.lat, 1)
	want := map[string]float64{"ops_per_s": 2, "p50_ms": 2, "p90_ms": 4, "cpu_ms_per_op": 2, "allocs_per_op": 100}
	m := w.endToEnd()
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	for k, v := range w.raw() {
		if v != want[k] {
			t.Errorf("raw %s = %g, want %g", k, v, want[k])
		}
	}
}

// TestSliceScaling: each slice's times are divided by the host probe's
// slowdown around it, and the rates follow from the scaled times.
func TestSliceScaling(t *testing.T) {
	w := window{ops: 4, wall: 2 * time.Second, cpu: 8 * time.Millisecond, mallocs: 400}
	w.addSlice(time.Second, 4*time.Millisecond, []float64{1, 2}, 2)
	w.addSlice(time.Second, 4*time.Millisecond, []float64{3, 4}, 0.5)
	sort.Float64s(w.refLat)
	// Scaled: 0.5 s + 2 s of wall, 2 ms + 8 ms of CPU, latencies
	// 0.5, 1, 6 and 8 ms.
	want := map[string]float64{"ops_per_s": 1.6, "p50_ms": 1, "p90_ms": 8, "cpu_ms_per_op": 2.5, "allocs_per_op": 100}
	m := w.endToEnd()
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
}

// TestHostProbe: the probe reads every CPU and leaves the calling
// thread's CPU affinity as it found it.
func TestHostProbe(t *testing.T) {
	hp, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer hp.close()
	if err := hp.sample(2); err != nil {
		t.Fatal(err)
	}
	if len(hp.samples) != 2*len(hp.cpus) {
		t.Fatalf("%d samples from %d CPUs, want 2 each", len(hp.samples), len(hp.cpus))
	}
	for _, s := range hp.samples {
		if s <= 0 {
			t.Fatalf("sample %v", s)
		}
	}
	if sd := hp.slowdown(0); sd <= 0 || math.IsInf(sd, 0) {
		t.Fatalf("slowdown %g", sd)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hp.kernels[0].pinned(hp.cpus[0], 1); err != nil {
		t.Fatal(err)
	}
	if after, err := getAffinity(); err != nil || after != before {
		t.Fatalf("affinity %v after pinned run, was %v (%v)", after, before, err)
	}
}

// failingVO fails one op and records the untimed repairs.
type failingVO struct {
	fail     string
	repaired []string
}

func (f *failingVO) err(op string) error {
	if op == f.fail {
		return errors.New("injected")
	}
	return nil
}

func (f *failingVO) available() ([]gridbox.Site, error)  { return []gridbox.Site{{Host: "a"}}, nil }
func (f *failingVO) reserve(string) error                { return f.err("MakeReservation") }
func (f *failingVO) upload(_, _, _ string) error         { return f.err("UploadFile") }
func (f *failingVO) instantiate(string) (wsa.EPR, error) { return wsa.EPR{}, f.err("InstantiateJob") }
func (f *failingVO) deleteFile(string) error             { return f.err("DeleteFile") }
func (f *failingVO) listFiles() ([]string, error)        { return nil, nil }
func (f *failingVO) destroyJob(wsa.EPR) error            { return nil }

func (f *failingVO) release(host string) error {
	f.repaired = append(f.repaired, "release "+host)
	return nil
}

func (f *failingVO) removeFile(name string) error {
	f.repaired = append(f.repaired, "remove "+name)
	return nil
}

// A signed-vo op that fails before a job exists fails alone: the cycle
// releases the reservation and removes the file, so the next cycle
// finds every site free.
func TestVOFailedOpRestoresState(t *testing.T) {
	for _, op := range []string{"UploadFile", "InstantiateJob"} {
		f := &failingVO{fail: op}
		d := &voDeploy{cl: f, hosts: []string{"a"}, rnd: newRand(1, streamPayload, 0)}
		r := &recorder{}
		d.step(0, r)
		if r.failed != 1 || r.wrong != 0 {
			t.Errorf("%s failing: failed=%d wrong=%d, want 1 and 0", op, r.failed, r.wrong)
		}
		if want := []string{"remove c000000.dat", "release a"}; !slices.Equal(f.repaired, want) {
			t.Errorf("%s failing: repairs %v, want %v", op, f.repaired, want)
		}
	}
}
