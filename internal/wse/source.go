package wse

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/fanout"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
	"altstacks/internal/xpathlite"
)

// DefaultExpiry is the lifetime granted when a Subscribe names none.
const DefaultExpiry = time.Hour

// deliveryMetrics are the ogsa_wse_* delivery counters, aggregated
// across every Source; DeliveryStats stays the per-instance view.
var deliveryMetrics = fanout.NewMetrics("wse", true)

// wseSinkDroppedTotal counts events HTTP/TCP sinks shed on overflow.
var wseSinkDroppedTotal = obs.NewCounter("ogsa_wse_sink_dropped_total", "",
	"events dropped by saturated HTTP/TCP sinks")

// DeliveryStats is a snapshot of a source's delivery counters.
type DeliveryStats = fanout.Stats

// Source is an Event Source Service plus its Subscription Manager.
type Source struct {
	// Store holds the subscription list (Plumbwork's flat XML file).
	Store *Store
	// ManagerEndpoint supplies the subscription manager's address; per
	// the spec it "may be the same web service as the event source, or
	// a separate service" (§2.2).
	ManagerEndpoint func() string
	// HTTP performs push-mode deliveries.
	HTTP *container.Client
	// TCP performs Plumbwork-style raw-TCP deliveries.
	TCP *TCPDeliverer
	// Now is the clock, overridable in tests.
	Now func() time.Time
	// Workers, DeliveryTimeout, Retry and EvictAfter govern delivery
	// (DeliveryTimeout bounds an HTTP exchange or a TCP frame write).
	// Eviction cancels the subscription and sends SubscriptionEnd with
	// StatusDeliveryFailure to its EndTo.
	fanout.Policy

	engine *fanout.Engine[*Subscription, publishPrep]
}

// NewSource builds an event source with the default retry and
// eviction policy (3 attempts per delivery, eviction after 3
// consecutive failed publishes).
func NewSource(store *Store, managerEndpoint func() string, httpClient *container.Client) *Source {
	s := &Source{
		Store:           store,
		ManagerEndpoint: managerEndpoint,
		HTTP:            httpClient,
		TCP:             NewTCPDeliverer(),
		Policy:          fanout.DefaultPolicy(),
	}
	s.engine = fanout.NewEngine[*Subscription, publishPrep](deliveryMetrics, "wse.publish", &s.Policy, s.now, publishSeam{s})
	return s
}

// MessagesSent reports events pushed, for the benchmark harness.
func (s *Source) MessagesSent() int64 { return s.engine.MessagesSent() }

// DeliveryStats snapshots the source's delivery counters.
func (s *Source) DeliveryStats() DeliveryStats { return s.engine.Stats() }

// Health returns the current delivery-health record for a
// subscription (zero record for unknown or never-delivered ids).
func (s *Source) Health(id string) SubscriptionHealth { return s.engine.Health(id) }

// dropChannel releases a TCP subscription's cached delivery channel
// when the subscription ends, so the deliverer's connection map tracks
// live subscriptions instead of growing with sink churn. Sinks shared
// by several subscriptions just redial on their next delivery — the
// channel is a cache, not subscription state.
func (s *Source) dropChannel(sub *Subscription) {
	if sub.Mode == DeliveryModeTCP {
		s.TCP.Evict(sub.NotifyTo.Address)
	}
}

func (s *Source) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// SourceService exposes Subscribe at the given path.
func (s *Source) SourceService(path string) *container.Service {
	return &container.Service{
		Path:    path,
		Actions: map[string]container.ActionFunc{ActionSubscribe: s.subscribe},
	}
}

// ManagerService exposes Renew, GetStatus, and Unsubscribe.
func (s *Source) ManagerService(path string) *container.Service {
	return &container.Service{
		Path: path,
		Actions: map[string]container.ActionFunc{
			ActionRenew:       s.renew,
			ActionGetStatus:   s.getStatus,
			ActionUnsubscribe: s.unsubscribe,
		},
	}
}

func (s *Source) subscribe(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	delivery := body.Child(NS, "Delivery")
	if delivery == nil {
		return nil, soap.Faultf(soap.FaultClient, "Subscribe carries no Delivery")
	}
	mode := delivery.AttrValue("", "Mode")
	if mode == "" {
		mode = DeliveryModePush
	}
	if mode != DeliveryModePush && mode != DeliveryModeTCP {
		// DeliveryModeRequestedUnavailable in the spec.
		return nil, soap.Faultf(soap.FaultClient, "delivery mode %q unavailable", mode)
	}
	ntEl := delivery.Child(NS, "NotifyTo")
	if ntEl == nil {
		return nil, soap.Faultf(soap.FaultClient, "Delivery carries no NotifyTo")
	}
	notifyTo, err := wsa.ParseEPR(ntEl)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad NotifyTo: %v", err)
	}
	sub := &Subscription{
		ID:       uuid.NewString(),
		NotifyTo: notifyTo,
		Mode:     mode,
		Expires:  s.now().Add(DefaultExpiry),
	}
	if et := body.Child(NS, "EndTo"); et != nil {
		if epr, err := wsa.ParseEPR(et); err == nil {
			sub.EndTo = epr
		}
	}
	if f := body.Child(NS, "Filter"); f != nil {
		sub.Filter = Filter{Dialect: f.AttrValue("", "Dialect"), Expr: f.TrimText()}
		if sub.Filter.Dialect == "" {
			sub.Filter.Dialect = DialectXPath
		}
		if sub.Filter.Dialect == DialectXPath {
			if _, err := xpathlite.Compile(sub.Filter.Expr); err != nil {
				return nil, soap.Faultf(soap.FaultClient, "bad filter: %v", err)
			}
		} else if sub.Filter.Dialect != DialectTopic {
			// FilteringRequestedUnavailable in the spec.
			return nil, soap.Faultf(soap.FaultClient, "filter dialect %q unavailable", sub.Filter.Dialect)
		}
	}
	if e := body.ChildText(NS, "Expires"); e != "" {
		when, err := time.Parse(time.RFC3339Nano, e)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad Expires %q: %v", e, err)
		}
		sub.Expires = when
	}
	if err := s.Store.Put(sub); err != nil {
		return nil, err
	}
	mgr := wsa.NewEPR(s.ManagerEndpoint()).WithParameter(NS, "Identifier", sub.ID)
	return xmlutil.New(NS, "SubscribeResponse").Add(
		mgr.Element(NS, "SubscriptionManager"),
		xmlutil.NewText(NS, "Expires", sub.Expires.UTC().Format(time.RFC3339Nano)),
	), nil
}

func (s *Source) lookup(ctx *container.Ctx) (*Subscription, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "Identifier")
	if !ok || id == "" {
		return nil, soap.Faultf(soap.FaultClient, "request carries no subscription Identifier")
	}
	sub := s.Store.Get(id)
	if sub == nil {
		return nil, soap.Faultf(soap.FaultClient, "unknown subscription %q", id)
	}
	return sub, nil
}

func (s *Source) renew(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	e := ctx.Envelope.Body.ChildText(NS, "Expires")
	when := s.now().Add(DefaultExpiry)
	if e != "" {
		when, err = time.Parse(time.RFC3339Nano, e)
		if err != nil {
			return nil, soap.Faultf(soap.FaultClient, "bad Expires %q: %v", e, err)
		}
	}
	sub.Expires = when
	if err := s.Store.Put(sub); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "RenewResponse").Add(
		xmlutil.NewText(NS, "Expires", when.UTC().Format(time.RFC3339Nano))), nil
}

func (s *Source) getStatus(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "GetStatusResponse").Add(
		xmlutil.NewText(NS, "Expires", sub.Expires.UTC().Format(time.RFC3339Nano))), nil
}

func (s *Source) unsubscribe(ctx *container.Ctx) (*xmlutil.Element, error) {
	sub, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.Store.Delete(sub.ID); err != nil {
		return nil, err
	}
	s.engine.DropHealth(sub.ID)
	s.dropChannel(sub)
	return xmlutil.New(NS, "UnsubscribeResponse"), nil
}

// Publish pushes an event to every live subscription whose filter
// matches, returning the delivery count. It runs on the delivery
// engine shared with WS-Notification (fanout.Engine): each delivery is
// retried per the Retry policy, and a subscription whose publishes keep
// failing EvictAfter times in a row is cancelled with exactly one
// SubscriptionEnd (StatusDeliveryFailure) to its EndTo, so one dead
// consumer stops taxing every subsequent fan-out.
//
// Expiry and filter checks run up front; a filter whose evaluation
// errors counts as a delivery fault against its subscription (feeding
// the same eviction ledger) rather than silently not matching. The
// matched deliveries then fan out over a bounded worker pool; the
// returned error is the first failure in subscription order.
func (s *Source) Publish(topic string, message *xmlutil.Element) (int, error) {
	return s.PublishContext(context.Background(), topic, message)
}

// PublishContext is Publish bounded by ctx: cancellation cuts short
// retry backoff and the HTTP exchanges, so a publish triggered by a
// request dies with that request. Handlers must pass their request
// context (container.Ctx.Context) here.
func (s *Source) PublishContext(ctx context.Context, topic string, message *xmlutil.Element) (int, error) {
	return s.engine.Publish(ctx, topic, message)
}

// publishPrep is what every delivery of one Publish shares. Both
// channels serialize fresh envelopes per delivery from the shared
// payload: soap.Envelope shares the body tree at marshal time.
type publishPrep struct {
	http    *container.Client
	topic   string
	message *xmlutil.Element
}

// publishSeam adapts a Source to fanout.Seam.
type publishSeam struct{ s *Source }

func (ps publishSeam) Subscriptions() ([]*Subscription, error) { return ps.s.Store.All(), nil }

func (publishSeam) ID(sub *Subscription) string { return sub.ID }

func (ps publishSeam) Match(sub *Subscription, topic string, msg *xmlutil.Element, now time.Time) (bool, error) {
	if sub.Expired(now) {
		return false, nil
	}
	return ps.s.filterMatches(sub.Filter, topic, msg)
}

func (ps publishSeam) Prepare(topic string, msg *xmlutil.Element) publishPrep {
	// Push delivery is always pooled — the persistent connections are
	// the stack's paper-era behavior — and rides ForDelivery so dials
	// versus reuses show up in the shared delivery metrics.
	return publishPrep{
		http:    ps.s.HTTP.ForDelivery(container.DeliveryPooled).WithTimeout(ps.s.DeliveryTimeout),
		topic:   topic,
		message: msg,
	}
}

func (ps publishSeam) Send(ctx context.Context, sub *Subscription, pr publishPrep) error {
	if sub.Mode == DeliveryModeTCP {
		// The frame write is bounded by the channel's write deadline; the
		// attempt context bounds the dial, so a black-holed sink fails
		// the attempt instead of hanging a fan-out worker in connect.
		return ps.s.TCP.DeliverContext(ctx, sub.NotifyTo.Address, eventEnvelope(pr.topic, pr.message), ps.s.DeliveryTimeout)
	}
	// Push over HTTP: a normal one-way SOAP POST to the sink, with the
	// topic riding in a header block.
	_, err := pr.http.CallWithHeadersContext(ctx, sub.NotifyTo, ActionEvent,
		[]*xmlutil.Element{xmlutil.NewText(NS, "Topic", pr.topic)}, pr.message)
	return err
}

// Evict cancels a dead subscription. The store delete is the
// exactly-once gate: whichever caller removes the subscription sends
// the single SubscriptionEnd; racing evictors and explicit cancels
// find it already gone and do nothing.
func (ps publishSeam) Evict(sub *Subscription, cause error) bool {
	s := ps.s
	if ok, _ := s.Store.Delete(sub.ID); !ok {
		return false
	}
	s.dropChannel(sub)
	s.sendEnd(s.endClient(), sub, StatusDeliveryFailure, cause.Error())
	return true
}

func (ps publishSeam) LoadHealth(id string) SubscriptionHealth {
	h, _ := ps.s.Store.GetHealth(id)
	return h
}

func (ps publishSeam) SaveHealth(id string, h SubscriptionHealth) error {
	return ps.s.Store.SetHealth(id, h)
}

func (s *Source) filterMatches(f Filter, topic string, message *xmlutil.Element) (bool, error) {
	if f.IsZero() {
		return true, nil
	}
	switch f.Dialect {
	case DialectTopic:
		return matchTopic(f.Expr, topic), nil
	case DialectXPath:
		return xpathlite.Matches(message, f.Expr)
	default:
		return false, fmt.Errorf("wse: unknown filter dialect %q", f.Dialect)
	}
}

// eventEnvelope frames one event for the TCP channel: the payload as
// the body, topic and action as header blocks.
func eventEnvelope(topic string, message *xmlutil.Element) *soap.Envelope {
	env := soap.New(message)
	env.AddHeader(
		xmlutil.NewText(NS, "Topic", topic),
		xmlutil.NewText(wsa.NS, "Action", ActionEvent),
	)
	return env
}

// cancel removes a subscription and notifies its EndTo endpoint over
// the given (timeout-bounded) client. The store delete gates the end
// notice, so concurrent cancels and evictions send at most one.
func (s *Source) cancel(client *container.Client, sub *Subscription, status, reason string) {
	ok, _ := s.Store.Delete(sub.ID)
	if !ok {
		return
	}
	s.engine.DropHealth(sub.ID)
	s.dropChannel(sub)
	s.sendEnd(client, sub, status, reason)
}

func (s *Source) sendEnd(client *container.Client, sub *Subscription, status, reason string) {
	if sub.EndTo.IsZero() {
		return
	}
	end := xmlutil.New(NS, "SubscriptionEnd").Add(
		xmlutil.NewText(NS, "Status", status),
		xmlutil.NewText(NS, "Reason", reason),
	)
	// The subscription is already removed; an undeliverable end notice
	// is counted, not retried — its EndTo is usually as dead as the
	// consumer that got the subscription evicted.
	if _, err := client.Call(sub.EndTo, ActionSubscriptionEnd, end); err != nil {
		s.engine.NoteEndNoticeError(err)
	}
}

// endClient is the delivery client for end notices, bounded by the
// per-delivery timeout: an EndTo endpoint is just another consumer —
// it answers unsigned, and may be as dead as the subscription being
// ended.
func (s *Source) endClient() *container.Client {
	return s.HTTP.ForDelivery(container.DeliveryPooled).WithTimeout(s.DeliveryTimeout)
}

// Shutdown cancels every live subscription with SourceShuttingDown.
// End notices go through the fan-out pool and are each bounded by
// DeliveryTimeout, so one hung EndTo consumer delays shutdown by at
// most one timeout instead of stalling it forever.
func (s *Source) Shutdown() {
	subs := s.Store.All()
	client := s.endClient()
	fanout.Do(len(subs), s.Workers, func(i int) {
		s.cancel(client, subs[i], StatusSourceShuttingDown, "event source shutting down")
	})
	s.TCP.Close()
}

// SweepExpired drops lapsed subscriptions (no SubscriptionEnd: expiry
// is the consumer's own deadline). It returns the number removed.
func (s *Source) SweepExpired() int {
	n := 0
	for _, sub := range s.Store.Expired(s.now()) {
		if ok, _ := s.Store.Delete(sub.ID); ok {
			s.engine.DropHealth(sub.ID)
			s.dropChannel(sub)
			n++
		}
	}
	return n
}

// NotificationManager is the Plumbwork-specific trigger facade: "a
// convenient tool for an event source to trigger notifications by
// using operations implemented in it" (paper §3.2).
type NotificationManager struct {
	Source *Source
}

// Trigger publishes an event through the source.
func (nm *NotificationManager) Trigger(topic string, message *xmlutil.Element) (int, error) {
	return nm.Source.Publish(topic, message)
}

// SubscribeOptions parameterizes a client-side Subscribe.
type SubscribeOptions struct {
	// NotifyTo is where events are delivered (an HTTP EPR for push
	// mode, a tcp:// EPR for TCP mode).
	NotifyTo wsa.EPR
	// EndTo optionally receives SubscriptionEnd messages.
	EndTo  wsa.EPR
	Mode   string
	Filter Filter
	// Expires requests an absolute expiry; zero asks the source to pick.
	Expires time.Time
}

// SubscribeResult is the outcome of a Subscribe call.
type SubscribeResult struct {
	// Manager addresses the subscription at the Subscription Manager
	// Service (carrying the wse:Identifier reference parameter).
	Manager wsa.EPR
	Expires time.Time
}

// Subscribe registers a subscription with the event source.
func Subscribe(c *container.Client, source wsa.EPR, opts SubscribeOptions) (SubscribeResult, error) {
	body := xmlutil.New(NS, "Subscribe")
	if !opts.EndTo.IsZero() {
		body.Add(opts.EndTo.Element(NS, "EndTo"))
	}
	mode := opts.Mode
	if mode == "" {
		mode = DeliveryModePush
	}
	body.Add(xmlutil.New(NS, "Delivery").SetAttr("", "Mode", mode).
		Add(opts.NotifyTo.Element(NS, "NotifyTo")))
	if !opts.Filter.IsZero() {
		body.Add(xmlutil.NewText(NS, "Filter", opts.Filter.Expr).
			SetAttr("", "Dialect", opts.Filter.Dialect))
	}
	if !opts.Expires.IsZero() {
		body.Add(xmlutil.NewText(NS, "Expires", opts.Expires.UTC().Format(time.RFC3339Nano)))
	}
	resp, err := c.Call(source, ActionSubscribe, body)
	if err != nil {
		return SubscribeResult{}, err
	}
	mgrEl := resp.Child(NS, "SubscriptionManager")
	if mgrEl == nil {
		return SubscribeResult{}, fmt.Errorf("wse: SubscribeResponse carries no SubscriptionManager")
	}
	mgr, err := wsa.ParseEPR(mgrEl)
	if err != nil {
		return SubscribeResult{}, err
	}
	res := SubscribeResult{Manager: mgr}
	if e := resp.ChildText(NS, "Expires"); e != "" {
		if t, err := time.Parse(time.RFC3339Nano, e); err == nil {
			res.Expires = t
		}
	}
	return res, nil
}

// Renew extends a subscription via its manager EPR and returns the new
// expiry.
func Renew(c *container.Client, manager wsa.EPR, expires time.Time) (time.Time, error) {
	body := xmlutil.New(NS, "Renew")
	if !expires.IsZero() {
		body.Add(xmlutil.NewText(NS, "Expires", expires.UTC().Format(time.RFC3339Nano)))
	}
	resp, err := c.Call(manager, ActionRenew, body)
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(time.RFC3339Nano, resp.ChildText(NS, "Expires"))
}

// GetStatus retrieves the subscription's current expiry.
func GetStatus(c *container.Client, manager wsa.EPR) (time.Time, error) {
	resp, err := c.Call(manager, ActionGetStatus, xmlutil.New(NS, "GetStatus"))
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(time.RFC3339Nano, resp.ChildText(NS, "Expires"))
}

// Unsubscribe removes the subscription.
func Unsubscribe(c *container.Client, manager wsa.EPR) error {
	_, err := c.Call(manager, ActionUnsubscribe, xmlutil.New(NS, "Unsubscribe"))
	return err
}

// HTTPSink is a push-mode consumer endpoint: a minimal container
// service that surfaces delivered events (and SubscriptionEnd
// messages) on a channel.
//
// Overflow behavior is drop-with-count: when Ch is full the event is
// discarded, Dropped is incremented, and the delivery is still ACKed —
// the sink deliberately sheds load rather than backpressuring the
// source's fan-out pool. Consumers that need every event must size the
// buffer (or drain) accordingly and can watch Dropped for loss.
type HTTPSink struct {
	C    *container.Container
	Ch   chan Event
	Ends chan string // SubscriptionEnd status URIs
	// Dropped counts events (and end notices) discarded because their
	// channel was full.
	Dropped atomic.Int64
}

// NewHTTPSink starts a push-mode sink on a fresh loopback port.
func NewHTTPSink(buffer int) (*HTTPSink, error) {
	s := &HTTPSink{
		C:    container.New(container.SecurityNone),
		Ch:   make(chan Event, buffer),
		Ends: make(chan string, 4),
	}
	s.C.Register(&container.Service{
		Path: "/sink",
		Actions: map[string]container.ActionFunc{
			ActionEvent: func(ctx *container.Ctx) (*xmlutil.Element, error) {
				ev := Event{Message: ctx.Envelope.Body}
				if h := ctx.Envelope.Header(NS, "Topic"); h != nil {
					ev.Topic = h.TrimText()
				}
				s.push(ev)
				return xmlutil.New(NS, "EventAck"), nil
			},
			ActionSubscriptionEnd: func(ctx *container.Ctx) (*xmlutil.Element, error) {
				select {
				case s.Ends <- ctx.Envelope.Body.ChildText(NS, "Status"):
				default:
					s.Dropped.Add(1)
					wseSinkDroppedTotal.Inc()
				}
				return xmlutil.New(NS, "SubscriptionEndAck"), nil
			},
		},
	})
	if _, err := s.C.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// push queues one event, shedding (with a count) when Ch is full.
func (s *HTTPSink) push(ev Event) {
	select {
	case s.Ch <- ev:
	default:
		s.Dropped.Add(1)
		wseSinkDroppedTotal.Inc()
	}
}

// EPR returns the sink's delivery endpoint.
func (s *HTTPSink) EPR() wsa.EPR { return s.C.EPR("/sink") }

// Close stops the sink.
func (s *HTTPSink) Close() { s.C.Close() }
