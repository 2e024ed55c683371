package container

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"time"

	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wssec"
	"altstacks/internal/xmlutil"
)

// Client is the proxy through which both stacks' clients invoke
// services: it stamps WS-Addressing headers (including the target
// EPR's reference properties), applies the configured security mode,
// performs the HTTP exchange, and unwraps the SOAP response.
//
// The paper observes that "from a client perspective, engaging either
// counter service is similar to invoking web methods on any other Web
// service — via a Web service proxy object" (§4.1.3); Client is that
// proxy object, shared by both stacks.
type Client struct {
	// HTTP performs the exchanges; connections are pooled, which is
	// what makes the HTTPS scenario fast ("due to socket caching,
	// HTTPS performance is much faster", §4.1.3).
	HTTP *http.Client
	// Signer signs requests (X.509 scenarios); nil otherwise.
	Signer *wssec.Signer
	// Verifier verifies signed responses; nil skips verification.
	Verifier *wssec.Verifier
}

// ClientConfig assembles a Client for one experimental scenario.
type ClientConfig struct {
	Mode SecurityMode
	// Link models the network between client and service.
	Link netlat.Profile
	// TLS is required for SecurityTLS (trusting the container's CA).
	TLS *tls.Config
	// Signer/Verifier are required for SecuritySign.
	Signer   *wssec.Signer
	Verifier *wssec.Verifier
	// PoolSize sizes the per-host idle connection pool. Callers that
	// fan out (the notification producers) should pass their fan-out
	// width so a full batch of pooled deliveries to one host never
	// closes connections it is about to need again; 0 selects a
	// general-purpose default of 16.
	PoolSize int
}

// defaultPoolSize is the per-host idle pool when ClientConfig.PoolSize
// is unset.
const defaultPoolSize = 16

// NewClient builds a client for the scenario.
func NewClient(cfg ClientConfig) *Client {
	pool := cfg.PoolSize
	if pool <= 0 {
		pool = defaultPoolSize
	}
	tlsCfg := cfg.TLS
	if tlsCfg != nil && tlsCfg.ClientSessionCache == nil {
		// Session resumption: when a pooled connection has aged out, the
		// re-handshake is abbreviated instead of full — the same socket
		// caching effect the paper credits for HTTPS being "much faster"
		// than expected (§4.1.3), carried across reconnects.
		tlsCfg = tlsCfg.Clone()
		tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(2 * pool)
	}
	base := &http.Transport{
		TLSClientConfig: tlsCfg,
		// MaxIdleConns stays 0 (unlimited): the per-host knob governs,
		// and a global cap below width × hosts would silently close
		// pooled connections mid-fan-out.
		MaxIdleConnsPerHost: pool,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{HTTP: &http.Client{Transport: cfg.Link.Transport(base)}}
	if cfg.Mode == SecuritySign {
		c.Signer = cfg.Signer
		c.Verifier = cfg.Verifier
	}
	return c
}

// Call invokes action on the endpoint, sending body and returning the
// response body element. SOAP faults come back as *soap.Fault errors.
// Cancellation-sensitive callers (the notification fan-outs, anything
// inside a handler) should use CallContext instead.
func (c *Client) Call(epr wsa.EPR, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	return c.CallContext(context.Background(), epr, action, body)
}

// CallContext is Call bounded by ctx: the HTTP exchange aborts when
// ctx is done, so retry backoff and shutdown deadlines propagate into
// the wire exchange itself.
func (c *Client) CallContext(ctx context.Context, epr wsa.EPR, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	env, err := c.callEnvelope(ctx, epr, action, nil, body)
	if err != nil {
		return nil, err
	}
	return env.Body, nil
}

// CallWithHeaders is Call with extra application header blocks (for
// example the wse:Topic header on event deliveries).
func (c *Client) CallWithHeaders(epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element) (*xmlutil.Element, error) {
	return c.CallWithHeadersContext(context.Background(), epr, action, headers, body)
}

// CallWithHeadersContext is CallWithHeaders bounded by ctx.
func (c *Client) CallWithHeadersContext(ctx context.Context, epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element) (*xmlutil.Element, error) {
	env, err := c.callEnvelope(ctx, epr, action, headers, body)
	if err != nil {
		return nil, err
	}
	return env.Body, nil
}

// CallEnvelope is Call but returns the whole response envelope, for
// callers that need response headers.
func (c *Client) CallEnvelope(epr wsa.EPR, action string, body *xmlutil.Element) (*soap.Envelope, error) {
	return c.callEnvelope(context.Background(), epr, action, nil, body)
}

func (c *Client) callEnvelope(ctx context.Context, epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element) (*soap.Envelope, error) {
	if epr.Address == "" {
		return nil, fmt.Errorf("container: call to empty EPR address")
	}
	env := soap.New(body)
	env.AddHeader(headers...)
	mid := wsa.Stamp(env, epr, action)
	// Record the outbound MessageID on the calling span (a deliver span
	// during notification fan-out, a handler span for nested calls): the
	// receiving container's dispatch root records the same ID, which is
	// how obs.Stitch joins the two process-local traces.
	span := obs.SpanFromContext(ctx)
	span.SetMessageID(mid)
	if c.Signer != nil {
		if err := c.Signer.Sign(env); err != nil {
			return nil, err
		}
	}
	// The request marshals straight into a pooled buffer; bytes.NewReader
	// gives the transport a rewindable view of it (GetBody for retries).
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	env.MarshalTo(buf)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, epr.Address, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("container: build request: %w", err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", action)
	req.ContentLength = int64(buf.Len())
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("container: %s: %w", action, err)
	}
	defer httpResp.Body.Close()
	respData, err := io.ReadAll(io.LimitReader(httpResp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("container: read response: %w", err)
	}
	// A fully read response means the exchange completed and the
	// transport is done with the request body, so the buffer can be
	// recycled. The error paths above deliberately leak it to the GC: a
	// failed exchange can leave the transport's write loop still holding
	// the reader, and reusing the bytes under it would corrupt a later
	// request.
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	respEnv, err := soap.Parse(respData)
	if err != nil {
		return nil, fmt.Errorf("container: response (HTTP %d): %w", httpResp.StatusCode, err)
	}
	if span != nil {
		span.SetRelatesTo(wsa.Extract(respEnv).RelatesTo)
	}
	if respEnv.IsFault() {
		return nil, respEnv.Fault
	}
	if c.Verifier != nil {
		if _, err := c.Verifier.Verify(respEnv); err != nil {
			return nil, fmt.Errorf("container: response verification: %w", err)
		}
	}
	return respEnv, nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// DeliveryMode selects how the notification delivery paths manage
// connections — the axis the paper's "TCP vs. HTTP issue" (§4.1.3)
// turns on.
type DeliveryMode int

const (
	// DeliveryPooled (the default) keeps delivery connections alive
	// between notifications, so steady-state fan-out pays no handshake.
	DeliveryPooled DeliveryMode = iota
	// DeliveryPerMessage closes the connection after every delivery,
	// reproducing the period-faithful one-shot consumer HTTP servers
	// the paper measured. The experiment harness pins this mode so the
	// Fig 2/3 reproductions keep the paper's connection behavior.
	DeliveryPerMessage
)

// String names the mode as benchmark output labels it.
func (m DeliveryMode) String() string {
	if m == DeliveryPerMessage {
		return "permessage"
	}
	return "pooled"
}

// deliveryTrace counts connection establishment versus reuse on the
// delivery path; one shared trace so attaching it allocates only the
// per-request context, keeping per-delivery allocations flat.
var deliveryTrace = &httptrace.ClientTrace{
	GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			obs.DeliveryConnsReused.Inc()
		} else {
			obs.DeliveryConnsDialed.Inc()
		}
	},
}

// connTraceTransport attaches deliveryTrace to each exchange.
type connTraceTransport struct{ base http.RoundTripper }

func (t connTraceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), deliveryTrace))
	return t.base.RoundTrip(req)
}

// ForDelivery returns a client configured for the outbound
// notification path in the given mode. Both modes account connection
// dials and reuses into the shared delivery metrics; DeliveryPooled
// rides the base client's idle pool, DeliveryPerMessage closes after
// every exchange (see WithoutKeepAlives). The client still signs what
// it sends but does not verify the ack: consumers are plain endpoints
// (the "custom HTTP server that clients include", §4.1.3) that answer
// unsigned, and booking their acks as failures would retry — and
// duplicate — every signed delivery until the subscription is evicted.
func (c *Client) ForDelivery(mode DeliveryMode) *Client {
	base := c.httpClient().Transport
	if base == nil {
		base = http.DefaultTransport
	}
	var rt http.RoundTripper = connTraceTransport{base}
	if mode == DeliveryPerMessage {
		rt = closingTransport{rt}
	}
	hc := *c.httpClient()
	hc.Transport = rt
	cp := *c
	cp.HTTP = &hc
	cp.Verifier = nil
	return &cp
}

// WithoutKeepAlives returns a client that closes its connection after
// every exchange. This models the 2005 notification-consumer HTTP
// path: WSRF.NET's "custom HTTP server that clients include" accepts
// one-shot connections, so every WS-Notification delivery pays
// connection setup — the "TCP vs. HTTP issue" behind the paper's
// Notify results (§4.1.3), in contrast to the Plumbwork SoapReceiver's
// persistent raw-TCP channel.
func (c *Client) WithoutKeepAlives() *Client {
	base := c.httpClient().Transport
	if base == nil {
		base = http.DefaultTransport
	}
	cp := *c
	cp.HTTP = &http.Client{Transport: closingTransport{base}}
	return &cp
}

// WithTimeout returns a client whose exchanges abort after d — the
// per-delivery cap the notification fan-out paths use so one stalled
// consumer cannot hold a worker (and with it the batch) indefinitely.
// A non-positive d returns the client unchanged.
func (c *Client) WithTimeout(d time.Duration) *Client {
	if d <= 0 {
		return c
	}
	hc := *c.httpClient()
	hc.Timeout = d
	cp := *c
	cp.HTTP = &hc
	return &cp
}

type closingTransport struct{ base http.RoundTripper }

func (t closingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Close = true
	return t.base.RoundTrip(req)
}
