package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast this shared host runs at the moment.
// The benchmark's CPUs are a few vCPUs of a host that other tenants
// load, and their load moves every timing the workloads give by 20 to
// 30 % over minutes, in the same direction for every metric. The probe
// is a fixed piece of work built from the Go standard library alone
// (sort, map lookups, byte scans, integer formatting and write/read
// system calls on a loopback TCP connection), so no change to the
// program moves it. It runs while the workload is paused, and its
// thread CPU time is what a host at the reference speed would show as
// probeNominal. Each slice of a timed window, and each set-up, is
// scaled by the probe readings taken on either side of it: its times
// are divided by the slowdown, and rates follow from the scaled times.

// probeNominal is about the kernel's thread CPU time on the reference
// host, a 2-vCPU KVM guest on a 4th-generation Xeon, where it reads
// 8 to 10 ms. It only sets the scale of the reported figures and must
// never change: every earlier result is on its scale.
const probeNominal = 10 * time.Millisecond

// hostProbe runs one probe kernel per CPU the process may use, each
// pinned to its CPU, all at once: vCPUs of a shared host can differ in
// speed by a factor of two at the same moment, because each lands on a
// host core whose other hyperthread may be busy, and the workloads use
// all of them.
type hostProbe struct {
	cpus    []int
	kernels []*probeKernel
	samples []time.Duration // thread CPU time per run of a kernel
}

func newHostProbe() (*hostProbe, error) {
	mask, err := getAffinity()
	if err != nil {
		return nil, err
	}
	p := &hostProbe{}
	for c := 0; c < len(mask)*64; c++ {
		if mask[c/64]&(1<<(c%64)) == 0 {
			continue
		}
		k, err := newProbeKernel()
		if err != nil {
			p.close()
			return nil, err
		}
		p.cpus = append(p.cpus, c)
		p.kernels = append(p.kernels, k)
	}
	if len(p.cpus) == 0 {
		return nil, fmt.Errorf("host probe: empty CPU affinity mask")
	}
	// First touch of every page and of the connections.
	if err := p.sample(1); err != nil {
		p.close()
		return nil, err
	}
	p.samples = nil
	return p, nil
}

// sample runs n kernels on every CPU at once and records their times.
func (p *hostProbe) sample(n int) error {
	times := make([][]time.Duration, len(p.cpus))
	errs := make([]error, len(p.cpus))
	var wg sync.WaitGroup
	for i := range p.cpus {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i], errs[i] = p.kernels[i].pinned(p.cpus[i], n)
		}(i)
	}
	wg.Wait()
	for i := range p.cpus {
		if errs[i] != nil {
			return fmt.Errorf("host probe on CPU %d: %w", p.cpus[i], errs[i])
		}
		p.samples = append(p.samples, times[i]...)
	}
	return nil
}

// gap runs probesPerGap kernels on every CPU, while the workload is
// paused, and returns their slowdown.
func (p *hostProbe) gap() (float64, error) {
	from := len(p.samples)
	if err := p.sample(probesPerGap); err != nil {
		return 0, err
	}
	return p.slowdown(from), nil
}

// slowdown is the mean probe time of samples[from:] over probeNominal:
// 1 on an idle reference host, above 1 on a slower or busier one.
func (p *hostProbe) slowdown(from int) float64 {
	s := p.samples[from:]
	if len(s) == 0 {
		return 1
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / float64(probeNominal)
}

func (p *hostProbe) close() {
	for _, k := range p.kernels {
		k.close()
	}
}

// probeKernel is one CPU's copy of the fixed work and its data.
type probeKernel struct {
	ints, buf []int
	table     map[int]int
	text      []byte
	num       []byte
	wfd, rfd  int
	msg, in   []byte
	closers   []interface{ Close() error }
}

func newProbeKernel() (*probeKernel, error) {
	r := rand.New(rand.NewSource(1))
	k := &probeKernel{
		ints: make([]int, 1<<14), buf: make([]int, 1<<14),
		table: make(map[int]int, 1<<15), num: make([]byte, 0, 32),
		msg: bytes.Repeat([]byte("x"), 1024), in: make([]byte, 4096),
	}
	for i := range k.ints {
		k.ints[i] = r.Int()
	}
	for i := 0; i < 1<<15; i++ {
		k.table[r.Intn(1<<20)] = i
	}
	var b bytes.Buffer
	for b.Len() < 1<<18 {
		fmt.Fprintf(&b, "<wsrf:Value xmlns:wsrf=\"urn:probe\">%d</wsrf:Value>\n", r.Int())
	}
	k.text = b.Bytes()
	if err := k.dial(); err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

// dial opens a loopback TCP connection and keeps blocking descriptors
// of both ends, so the kernel's system calls bypass Go's network poller.
func (k *probeKernel) dial() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	k.closers = append(k.closers, ln)
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	k.closers = append(k.closers, c1)
	c2, err := ln.Accept()
	if err != nil {
		return err
	}
	k.closers = append(k.closers, c2)
	f1, err := c1.(*net.TCPConn).File()
	if err != nil {
		return err
	}
	k.closers = append(k.closers, f1)
	f2, err := c2.(*net.TCPConn).File()
	if err != nil {
		return err
	}
	k.closers = append(k.closers, f2)
	k.wfd, k.rfd = int(f1.Fd()), int(f2.Fd())
	return nil
}

func (k *probeKernel) close() {
	for i := len(k.closers) - 1; i >= 0; i-- {
		k.closers[i].Close() //nolint:errcheck // teardown
	}
}

var probeSink atomic.Int64

// run is the fixed work; it allocates nothing.
func (k *probeKernel) run() error {
	copy(k.buf, k.ints)
	sort.Ints(k.buf)
	s := k.buf[len(k.buf)/2]
	for i := 0; i < 1<<16; i++ {
		s += k.table[(i*7919)&(1<<20-1)]
	}
	s += bytes.Count(k.text, []byte("</wsrf:Value>"))
	for i := 0; i < 1<<14; i++ {
		k.num = strconv.AppendInt(k.num[:0], int64(i)*104729, 10)
		s += len(k.num)
	}
	for i := 0; i < 600; i++ {
		if _, err := syscall.Write(k.wfd, k.msg); err != nil {
			return err
		}
		for got := 0; got < len(k.msg); {
			n, err := syscall.Read(k.rfd, k.in)
			if err != nil {
				return err
			}
			got += n
		}
	}
	probeSink.Add(int64(s))
	return nil
}

// pinned runs the kernel n times on a thread bound to cpu and returns
// each run's thread CPU time. The thread gets its old affinity back
// before it returns to the Go scheduler; if that fails, the goroutine
// exits still locked, and Go ends the thread.
func (k *probeKernel) pinned(cpu, n int) ([]time.Duration, error) {
	runtime.LockOSThread()
	old, err := getAffinity()
	if err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(&one); err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	times := make([]time.Duration, 0, n)
	for i := 0; i < n && err == nil; i++ {
		c0 := threadCPU()
		err = k.run()
		times = append(times, threadCPU()-c0)
	}
	if rerr := setAffinity(&old); rerr != nil {
		return nil, rerr
	}
	runtime.UnlockOSThread()
	return times, err
}

// cpuMask is a Linux CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// getAffinity reads the calling thread's CPU set.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity binds the calling thread to m.
func setAffinity(m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}
