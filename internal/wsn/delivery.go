// The WS-Notification side of the shared delivery engine
// (fanout.Engine): how a Notify is matched, put on the wire, ended and
// remembered.
//
// WS-BaseNotification has no SubscriptionEnd message; a producer that
// gives up on a subscriber terminates the subscription through its
// lifetime path instead (the subscription is itself a WS-Resource, so
// eviction is a Destroy). Health records persist in a sibling
// collection ("<subs>-health") — alongside the subscriptions but
// outside their collection, so failure bookkeeping never invalidates
// the generation-cached subscription scan that keeps steady-state
// Notify off the database.
package wsn

import (
	"context"
	"errors"
	"strconv"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/fanout"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// deliveryMetrics are the ogsa_wsn_* delivery counters, aggregated
// across every Producer; DeliveryStats stays the per-instance view.
var deliveryMetrics = fanout.NewMetrics("wsn", false)

// SubscriptionHealth is the per-subscription delivery ledger.
type SubscriptionHealth = fanout.Health

// DeliveryStats is a snapshot of a producer's delivery counters
// (EndNoticeErrors stays 0: WS-BaseNotification has no end notice).
type DeliveryStats = fanout.Stats

// DeliveryStats snapshots the producer's delivery counters.
func (p *Producer) DeliveryStats() DeliveryStats { return p.engine.Stats() }

// Health returns the current delivery-health record for a
// subscription (zero record for unknown or never-delivered ids).
func (p *Producer) Health(id string) SubscriptionHealth { return p.engine.Health(id) }

// MessagesSent reports how many notification messages this producer
// has pushed — the instrument behind the demand-publishing
// amplification test.
func (p *Producer) MessagesSent() int64 { return p.engine.MessagesSent() }

// notifyPrep is what every delivery of one Notify shares: the client
// for the producer's Mode, and the payload both bare (raw mode) and
// wrapped. soap.Envelope shares the body tree at marshal time, so one
// wrapped body serves every concurrent delivery.
type notifyPrep struct {
	client           *container.Client
	payload, wrapped *xmlutil.Element
}

// notifySeam adapts a Producer to fanout.Seam.
type notifySeam struct{ p *Producer }

func (s notifySeam) Subscriptions() ([]*Subscription, error) { return s.p.Subscriptions() }

func (notifySeam) ID(sub *Subscription) string { return sub.ID }

func (s notifySeam) Match(sub *Subscription, topic string, msg *xmlutil.Element, _ time.Time) (bool, error) {
	return s.p.matches(sub, topic, msg)
}

func (s notifySeam) Prepare(topic string, msg *xmlutil.Element) notifyPrep {
	p := s.p
	// WSRF.NET keeps all service state in the database, and the topic's
	// current message (the GetCurrentMessage property) is state: each
	// dispatched notification writes it through — an Update with no
	// preceding read, mirroring the Set path's write-through cache.
	// Demand applies as it does to dispatch itself: a publish no active
	// subscription matches materializes nothing. With the subscription
	// scan cached away, this write is where the paper's "dominated by
	// Xindice" observation keeps holding on the Notify path (§4.1.3).
	p.storeCurrentMessage(topic, msg)
	return notifyPrep{
		client:  p.Deliver.ForDelivery(p.Mode).WithTimeout(p.DeliveryTimeout),
		payload: msg,
		wrapped: buildNotify(topic, msg),
	}
}

// Send posts one Notify. Raw subscribers get the bare payload — the
// mode the paper flags as an interoperability hazard ("the information
// passed with a notification … is not well-defined", §3.1).
func (notifySeam) Send(ctx context.Context, sub *Subscription, pr notifyPrep) error {
	body := pr.wrapped
	if sub.UseRaw {
		body = pr.payload
	}
	_, err := pr.client.CallContext(ctx, sub.Consumer, ActionNotify, body)
	return err
}

// Evict terminates a dead subscription through the lifetime path:
// Destroy on the subscription WS-Resource. Destroy's not-found error
// is the exactly-once gate. AfterDestroy invalidates the subscription
// cache, so the next Notify no longer scans the evicted consumer.
func (s notifySeam) Evict(sub *Subscription, _ error) bool {
	return s.p.Subs.Destroy(sub.ID) == nil
}

func (s notifySeam) LoadHealth(id string) SubscriptionHealth {
	p := s.p
	var h SubscriptionHealth
	if p.Subs == nil || p.Subs.DB == nil {
		return h
	}
	doc, err := p.Subs.DB.Get(p.healthCollection(), id)
	if err != nil {
		return h
	}
	h.ConsecutiveFailures, _ = strconv.Atoi(doc.ChildText(NSNT, "ConsecutiveFailures"))
	h.LastError = doc.ChildText(NSNT, "LastError")
	if v := doc.ChildText(NSNT, "LastSuccess"); v != "" {
		h.LastSuccess, _ = time.Parse(time.RFC3339Nano, v)
	}
	if v := doc.ChildText(NSNT, "LastFailure"); v != "" {
		h.LastFailure, _ = time.Parse(time.RFC3339Nano, v)
	}
	return h
}

func (s notifySeam) SaveHealth(id string, h SubscriptionHealth) error {
	p := s.p
	if p.Subs == nil || p.Subs.DB == nil {
		return nil
	}
	doc := xmlutil.New(NSNT, "SubscriptionHealth").Add(
		xmlutil.NewText(NSNT, "ConsecutiveFailures", strconv.Itoa(h.ConsecutiveFailures)))
	if h.LastError != "" {
		doc.Add(xmlutil.NewText(NSNT, "LastError", h.LastError))
	}
	if !h.LastSuccess.IsZero() {
		doc.Add(xmlutil.NewText(NSNT, "LastSuccess", h.LastSuccess.UTC().Format(time.RFC3339Nano)))
	}
	if !h.LastFailure.IsZero() {
		doc.Add(xmlutil.NewText(NSNT, "LastFailure", h.LastFailure.UTC().Format(time.RFC3339Nano)))
	}
	return p.Subs.DB.Put(p.healthCollection(), id, doc)
}

// healthCollection is where health records persist, beside the
// subscription collection (like the "-current" message collection).
func (p *Producer) healthCollection() string { return p.Subs.Collection + "-health" }

// dropHealth forgets a subscription's ledger in memory and on disk;
// wired to AfterDestroy so unsubscribes and evictions both clean up.
func (p *Producer) dropHealth(id string) {
	p.engine.DropHealth(id)
	if p.Subs != nil && p.Subs.DB != nil {
		// A subscription whose health was never persisted has nothing to
		// delete; only real backend failures count.
		if err := p.Subs.DB.Delete(p.healthCollection(), id); err != nil && !errors.Is(err, xmldb.ErrNotFound) {
			p.engine.NoteStateWriteError(err)
		}
	}
}

// buildNotify wraps a message as a wsnt:Notify body — the historical
// single-message envelope TestBatchOfOneWireIdentical pins.
func buildNotify(topic string, msg *xmlutil.Element) *xmlutil.Element {
	return xmlutil.New(NSNT, "Notify").Add(
		xmlutil.New(NSNT, "NotificationMessage").Add(
			xmlutil.NewText(NSNT, "Topic", topic).SetAttr("", "Dialect", DialectConcrete),
			xmlutil.New(NSNT, "Message").Add(msg),
		))
}
