package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/xmldb"
)

// The traced run measures each layer from outside: it wraps the
// transports, the xmldb backend and the wse TCP connections that the
// benchmark itself hands to the program, and times the calls that
// cross them. A nil *tracer is the untraced run: every wrap is a no-op.
type tracer struct {
	top      meter // exchanges of the benchmark's own clients
	delivery meter // notification deliveries over HTTP
	tcp      meter // wse raw-TCP frame writes (n = writes, dialed = conns)
	outcall  meter // the gridbox VO's service-to-service calls
	backend  meter // xmldb backend operations
	spans    spanLog

	mu   sync.Mutex
	curs []*atomic.Int64
}

// cur is client c's current-op cell, shared by its recorder and its
// transport.
func (t *tracer) cur(c int) *atomic.Int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.curs) <= c {
		t.curs = append(t.curs, new(atomic.Int64))
	}
	return t.curs[c]
}

// meter accumulates one class of crossings.
type meter struct {
	n, nanos, bytes, dialed atomic.Int64
}

func (m *meter) add(start time.Time, bytes int64) time.Time {
	end := time.Now()
	m.n.Add(1)
	m.nanos.Add(int64(end.Sub(start)))
	m.bytes.Add(bytes)
	return end
}

type meterSnap struct{ n, nanos, bytes, dialed int64 }

func (m *meter) snap() meterSnap {
	return meterSnap{m.n.Load(), m.nanos.Load(), m.bytes.Load(), m.dialed.Load()}
}

func (s meterSnap) sub(o meterSnap) meterSnap {
	return meterSnap{s.n - o.n, s.nanos - o.nanos, s.bytes - o.bytes, s.dialed - o.dialed}
}

// The classes of HTTP exchange a traced run tells apart.
const (
	exchTop      = "exchange" // the benchmark's own clients
	exchDelivery = "deliver"  // notification deliveries
	exchOutcall  = "outcall"  // the VO's service-to-service calls
)

// wrapClient installs a timing transport on c. cur, when non-nil, is
// the id of the op the owning client goroutine is running; exchange
// spans record it as their parent.
func (t *tracer) wrapClient(c *container.Client, class string, cur *atomic.Int64) {
	if t == nil {
		return
	}
	m := map[string]*meter{exchTop: &t.top, exchDelivery: &t.delivery, exchOutcall: &t.outcall}[class]
	c.HTTP.Transport = &meteredTransport{base: c.HTTP.Transport, m: m, spans: &t.spans, name: class, cur: cur}
}

// wrapBackend returns b behind a timing wrapper.
func (t *tracer) wrapBackend(b *xmldb.MemoryBackend) xmldb.Backend {
	if t == nil {
		return b
	}
	return &meteredBackend{b: b, m: &t.backend}
}

// wrapConn is a wse.TCPDeliverer.WrapConn hook timing frame writes.
func (t *tracer) wrapConn() func(net.Conn) net.Conn {
	if t == nil {
		return nil
	}
	return func(c net.Conn) net.Conn {
		t.tcp.dialed.Add(1)
		return &meteredConn{Conn: c, m: &t.tcp}
	}
}

type meteredTransport struct {
	base  http.RoundTripper
	m     *meter
	spans *spanLog
	name  string
	cur   *atomic.Int64
}

func (t *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	m := t.m
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			m.dialed.Add(1)
		}
	}}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.done(start, req.ContentLength)
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, t: t, start: start, n: req.ContentLength}
	return resp, nil
}

// done closes one exchange: from the request leaving to the response
// body's last byte.
func (t *meteredTransport) done(start time.Time, bytes int64) {
	end := t.m.add(start, bytes)
	var parent int64
	if t.cur != nil {
		parent = t.cur.Load()
	}
	t.spans.add(t.name, parent, start, end)
}

// meteredBody ends its exchange at EOF or Close, whichever comes first.
type meteredBody struct {
	io.ReadCloser
	t     *meteredTransport
	start time.Time
	n     int64
	ended bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *meteredBody) end() {
	if !b.ended {
		b.ended = true
		b.t.done(b.start, b.n)
	}
}

type meteredConn struct {
	net.Conn
	m *meter
}

func (c *meteredConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.m.add(start, int64(n))
	return n, err
}

// meteredBackend times every backend operation. It implements
// xmldb.Haser so DB.Exists keeps its no-copy presence probe.
type meteredBackend struct {
	b *xmldb.MemoryBackend
	m *meter
}

var _ xmldb.Haser = (*meteredBackend)(nil)

func (w *meteredBackend) Put(collection, id string, doc []byte) error {
	defer w.m.add(time.Now(), 0)
	return w.b.Put(collection, id, doc)
}

func (w *meteredBackend) Get(collection, id string) ([]byte, bool, error) {
	defer w.m.add(time.Now(), 0)
	return w.b.Get(collection, id)
}

func (w *meteredBackend) Delete(collection, id string) error {
	defer w.m.add(time.Now(), 0)
	return w.b.Delete(collection, id)
}

func (w *meteredBackend) IDs(collection string) ([]string, error) {
	defer w.m.add(time.Now(), 0)
	return w.b.IDs(collection)
}

func (w *meteredBackend) CondPut(collection, id string, doc []byte, wantExists bool) (bool, error) {
	defer w.m.add(time.Now(), 0)
	return w.b.CondPut(collection, id, doc, wantExists)
}

func (w *meteredBackend) CondDelete(collection, id string) (bool, error) {
	defer w.m.add(time.Now(), 0)
	return w.b.CondDelete(collection, id)
}

func (w *meteredBackend) Has(collection, id string) (bool, error) {
	defer w.m.add(time.Now(), 0)
	return w.b.Has(collection, id)
}

// spanLog keeps the traced run's spans in memory; they are written out
// once, at exit. Ops are root spans; a client's exchanges name the op
// that caused them.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	nextID  atomic.Int64
	spans   []span
	dropped int64
}

type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the log's memory; later spans are counted as dropped.
const maxSpans = 1 << 18

func (l *spanLog) newID() int64 { return l.nextID.Add(1) }

func (l *spanLog) add(name string, parent int64, start, end time.Time) {
	l.addID(l.newID(), name, parent, start, end)
}

func (l *spanLog) addID(id int64, name string, parent int64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name, id, parent, int64(start.Sub(l.t0)), int64(end.Sub(l.t0))})
}

// start opens the log; spans before it are not kept.
func (l *spanLog) start() {
	l.mu.Lock()
	l.t0 = time.Now()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: span log full, %d later spans not kept\n", l.dropped)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
