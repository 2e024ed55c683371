package wse

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

// Frame format for the raw-TCP delivery channel: a 4-byte big-endian
// length followed by a SOAP envelope. Delivery is one-way — no
// response envelope, no HTTP framing — which is the structural reason
// the paper found WS-Eventing notification "considerably better …
// because of the TCP vs. HTTP issue" (§4.1.3).

// maxFrame bounds a single event frame (16 MiB, matching the HTTP
// container's request cap).
const maxFrame = 16 << 20

// Event is one delivered notification.
type Event struct {
	Topic   string
	Message *xmlutil.Element
}

// TCPSink is the consumer-side SoapReceiver: it accepts connections
// and surfaces each framed envelope as an Event on Ch. Like HTTPSink,
// overflow is drop-with-count: a full Ch discards the event and bumps
// Dropped rather than blocking the wire.
type TCPSink struct {
	ln net.Listener
	Ch chan Event
	// Dropped counts events discarded because Ch was full.
	Dropped atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]bool
	wg    sync.WaitGroup
}

// NewTCPSink starts a sink on a fresh loopback port.
func NewTCPSink(buffer int) (*TCPSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wse: sink listen: %w", err)
	}
	s := &TCPSink{ln: ln, Ch: make(chan Event, buffer), conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the sink's address in tcp:// URI form, used as the
// NotifyTo address of TCP-mode subscriptions.
func (s *TCPSink) Addr() string { return "tcp://" + s.ln.Addr().String() }

// Close stops accepting, closes live connections, and waits for the
// reader goroutines to drain.
func (s *TCPSink) Close() {
	s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *TCPSink) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.readLoop(conn)
		}()
	}
}

func (s *TCPSink) readLoop(conn net.Conn) {
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		env, err := soap.Parse(data)
		if err != nil {
			continue // skip malformed frames, keep the connection
		}
		ev := Event{}
		if h := env.Header(NS, "Topic"); h != nil {
			ev.Topic = h.TrimText()
		}
		if env.Body != nil {
			ev.Message = env.Body
		}
		select {
		case s.Ch <- ev:
		default:
			// Best-effort: drop on overflow rather than block the wire.
			s.Dropped.Add(1)
			wseSinkDroppedTotal.Inc()
		}
	}
}

// TCPDeliverer is the source-side channel: it keeps one persistent
// connection per sink address and writes framed envelopes. Deliveries
// to different addresses proceed concurrently (the Publish fan-out
// runs them on a worker pool); deliveries to the same address are
// serialized per connection so frames never interleave on the wire.
type TCPDeliverer struct {
	// WrapConn, when set, wraps each new connection (the netlat hook
	// for distributed scenarios).
	WrapConn func(net.Conn) net.Conn

	mu    sync.Mutex
	conns map[string]*tcpChannel
}

// tcpChannel is the per-address connection slot; its lock serializes
// frame writes and redials for that sink.
type tcpChannel struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewTCPDeliverer returns an empty deliverer.
func NewTCPDeliverer() *TCPDeliverer {
	return &TCPDeliverer{conns: map[string]*tcpChannel{}}
}

// framePool recycles transmit buffers: each delivery renders its
// length-prefixed frame(s) straight into one of these (streaming
// serialization, no intermediate envelope []byte) and the buffer is
// free again as soon as conn.Write returns.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledFrame keeps only ordinarily-sized buffers in the pool,
// mirroring the HTTP container's body-pool cap.
const maxPooledFrame = 1 << 20

// appendFrame renders env as one length-prefixed frame at the end of b.
func appendFrame(b *bytes.Buffer, env *soap.Envelope) error {
	start := b.Len()
	var hdr [4]byte
	b.Write(hdr[:])
	env.MarshalTo(b)
	n := b.Len() - start - 4
	if n > maxFrame {
		return fmt.Errorf("wse: event frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(b.Bytes()[start:], uint32(n))
	return nil
}

// Deliver writes one framed envelope to the sink at addr
// ("tcp://host:port"). See DeliverContext.
func (d *TCPDeliverer) Deliver(addr string, env *soap.Envelope, timeout time.Duration) error {
	return d.DeliverContext(context.Background(), addr, env, timeout)
}

// DeliverContext writes one framed envelope to the sink at addr
// ("tcp://host:port"). The connection is cached; a stale connection is
// re-dialed once, with the dial bounded by ctx and timeout. A positive
// timeout also bounds the frame write (plus any wait for the
// per-address channel) so a sink that stops reading cannot stall a
// delivery worker forever.
func (d *TCPDeliverer) DeliverContext(ctx context.Context, addr string, env *soap.Envelope, timeout time.Duration) error {
	buf := framePool.Get().(*bytes.Buffer)
	buf.Reset()
	err := appendFrame(buf, env)
	if err == nil {
		err = d.send(ctx, addr, buf.Bytes(), timeout)
	}
	if buf.Cap() <= maxPooledFrame {
		framePool.Put(buf)
	}
	return err
}

// send writes an already-framed payload to addr's channel.
func (d *TCPDeliverer) send(ctx context.Context, addr string, frame []byte, timeout time.Duration) error {
	ch := d.channel(addr)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if err := d.dialLocked(ctx, ch, addr, attempt > 0, timeout); err != nil {
			return err
		}
		if timeout > 0 {
			// A deadline that cannot be set means the connection is
			// already unusable: treat it like a failed write and retry on
			// a fresh dial rather than risking an unbounded Write.
			if err := ch.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
				ch.conn.Close()
				ch.conn = nil
				continue
			}
		}
		// The per-address mutex deliberately stays held across the frame
		// write: interleaved partial frames would corrupt the length-
		// prefixed stream for every subsequent event on this channel.
		// Serialization per sink address is the delivery contract, and
		// cross-sink parallelism comes from the fan-out pool.
		//lint:ignore ogsalint/lockheld per-connection mutex serializes frame writes by design; see comment above
		if _, err := ch.conn.Write(frame); err == nil {
			return nil
		}
		ch.conn.Close()
		ch.conn = nil
	}
	return fmt.Errorf("wse: delivery to %s failed after reconnect", addr)
}

func (d *TCPDeliverer) channel(addr string) *tcpChannel {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conns == nil {
		d.conns = map[string]*tcpChannel{}
	}
	ch, ok := d.conns[addr]
	if !ok {
		ch = &tcpChannel{}
		d.conns[addr] = ch
	}
	return ch
}

// dialLocked ensures ch holds a live connection, redialing when fresh
// is set or no connection is cached. The dial honors ctx (the delivery
// context) and, when positive, timeout — so a black-holed sink fails
// the delivery instead of stalling a fan-out worker in an unbounded
// connect. Callers hold ch.mu.
func (d *TCPDeliverer) dialLocked(ctx context.Context, ch *tcpChannel, addr string, fresh bool, timeout time.Duration) error {
	if !fresh && ch.conn != nil {
		obs.DeliveryConnsReused.Inc()
		return nil
	}
	host := strings.TrimPrefix(addr, "tcp://")
	dialer := net.Dialer{Timeout: timeout}
	c, err := dialer.DialContext(ctx, "tcp", host)
	if err != nil {
		return fmt.Errorf("wse: dial sink %s: %w", addr, err)
	}
	obs.DeliveryConnsDialed.Inc()
	if d.WrapConn != nil {
		c = d.WrapConn(c)
	}
	if ch.conn != nil {
		ch.conn.Close()
	}
	ch.conn = c
	return nil
}

// Evict closes and forgets the cached channel for addr. The source
// calls this when a subscription to addr ends — unsubscribe,
// expiration, or health eviction — so the conns map tracks only live
// subscriptions instead of growing for as long as sinks churn.
func (d *TCPDeliverer) Evict(addr string) {
	d.mu.Lock()
	ch, ok := d.conns[addr]
	if ok {
		delete(d.conns, addr)
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	ch.mu.Lock()
	if ch.conn != nil {
		ch.conn.Close()
		ch.conn = nil
	}
	ch.mu.Unlock()
}

// ConnCount reports how many sink channels are cached.
func (d *TCPDeliverer) ConnCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// Close tears down all cached connections.
func (d *TCPDeliverer) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for addr, ch := range d.conns {
		ch.mu.Lock()
		if ch.conn != nil {
			ch.conn.Close()
			ch.conn = nil
		}
		ch.mu.Unlock()
		delete(d.conns, addr)
	}
}
