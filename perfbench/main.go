// Command perfbench is the repository's benchmark. One invocation runs
// one workload on both stacks, each in a fresh child process, and
// prints every metric by name and unit; its last line is one JSON
// object with the verdict, the op counts and the metrics.
//
//	perfbench --workload counter-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, their timings scaled to a
// reference host speed by the host probe (hostspeed.go), with the
// figures as measured printed beside them; --trace 1 reports the
// per-layer metrics of a separate traced run. See README.md in this
// directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	stackWSRF = "wsrf"
	stackWST  = "wst"
)

var stacks = []string{stackWSRF, stackWST}

var workloads = []string{"counter-mix", "fanout-1k", "signed-vo"}

// childTimeout bounds one stack's process; two of them must finish
// well inside the 180 s a run may take.
const childTimeout = 80 * time.Second

// scratchDir holds everything a run writes, inside the checkout.
const scratchDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	child    string // stack to run in this process; "" for the parent
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds, split evenly between the two stacks")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run and its per-layer metrics")
	flag.StringVar(&o.child, "child", "", "internal: run one stack and print its result")
	flag.Parse()
	o.trace = trace == 1
	validChild := o.child == "" || o.child == stackWSRF || o.child == stackWST
	if !validWorkload(o.workload) || o.seconds <= 0 || (trace != 0 && trace != 1) || !validChild {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloads, ", "))
		os.Exit(2)
	}
	var err error
	if o.child != "" {
		err = childMain(o)
	} else {
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, n := range workloads {
		if n == w {
			return true
		}
	}
	return false
}

// stackResult is what a child reports on its last line of stdout.
type stackResult struct {
	Stack     string   `json:"stack"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"`
	Notes     []string `json:"notes,omitempty"`
	Check     string   `json:"check,omitempty"`
	// Setups are the set-up times scaled to the reference host speed,
	// RawSetups as measured.
	Setups    []float64          `json:"setups,omitempty"`
	RawSetups []float64          `json:"raw_setups,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds the timing metrics before scaling, and Slowdown the
	// host probe's mean reading over the child's life.
	Raw      map[string]float64 `json:"raw,omitempty"`
	Slowdown float64            `json:"slowdown,omitempty"`
	Spans    string             `json:"spans,omitempty"`
}

func parentMain(o options) error {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	var results []stackResult
	for _, st := range stacks {
		r, err := runStack(o, st)
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		results = append(results, r)
	}
	return report(os.Stdout, o, results)
}

// runStack runs one stack in a fresh process, so heap, goroutines and
// sockets never carry over from the other stack.
func runStack(o options, st string) (stackResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return stackResult{}, err
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds/2, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"--child", st)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return stackResult{}, fmt.Errorf("child process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r stackResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return stackResult{}, fmt.Errorf("child result: %w", err)
	}
	return r, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable lines, then the JSON verdict.
func report(w io.Writer, o options, results []stackResult) error {
	v := verdict{Correct: true, Metrics: map[string]metricOut{}}
	var setup, rawSetup float64
	for _, r := range results {
		v.Attempted += r.Attempted
		v.Failed += r.Failed
		ok := r.Wrong == 0 && r.Check == ""
		v.Correct = v.Correct && ok
		verdictWord := "PASS"
		if !ok {
			verdictWord = "FAIL"
		}
		fmt.Fprintf(w, "%s: attempted=%d failed=%d wrong=%d correctness=%s\n",
			r.Stack, r.Attempted, r.Failed, r.Wrong, verdictWord)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "%s:   failed op: %s\n", r.Stack, n)
		}
		if r.Check != "" {
			fmt.Fprintf(w, "%s:   end-of-run check: %s\n", r.Stack, r.Check)
		}
		if r.Spans != "" {
			fmt.Fprintf(w, "%s: spans written to %s\n", r.Stack, r.Spans)
		}
		for name, val := range r.Metrics {
			v.Metrics[r.Stack+"."+name] = metricOut{val, unitOf(name)}
		}
		if !o.trace {
			setup += median(r.Setups)
			rawSetup += median(r.RawSetups)
			fmt.Fprintf(w, "%s: host probe slowdown %.3f; as measured: ops_per_s %.4f, p50_ms %.4f, p90_ms %.4f, cpu_ms_per_op %.4f\n",
				r.Stack, r.Slowdown, r.Raw["ops_per_s"], r.Raw["p50_ms"], r.Raw["p90_ms"], r.Raw["cpu_ms_per_op"])
		}
	}
	if !o.trace {
		v.Metrics["setup_s"] = metricOut{setup, "s"}
		fmt.Fprintf(w, "setup_s as measured: %.4f\n", rawSetup)
	}
	names := make([]string, 0, len(v.Metrics))
	for n := range v.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, v.Metrics[n].Value, v.Metrics[n].Unit)
	}
	if o.trace {
		printSelfTimes(w, results)
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// childMain runs one stack: set-up (repeated, median reported), the
// measured window, and the end-of-run checks.
func childMain(o options) error {
	res, err := runChild(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runDir is this process's scratch directory for files the program
// writes (the signed-vo data root).
func runDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(scratchDir, "run", strconv.Itoa(os.Getpid())))
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
