package fanout

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/retry"
	"altstacks/internal/xmlutil"
)

// The delivery engine: the one notification producer both stacks run
// (paper Fig. 1 draws a single producer/consumer box in the shared
// container). A publish lists and matches subscriptions, fans the
// matched deliveries out over Do, retries each per the Policy, keeps a
// per-subscription health ledger, evicts a subscription exactly once
// after EvictAfter consecutive failed publishes, and accounts every
// step in counters, spans and flight-recorder events. What differs
// between the stacks — the wire format, the filter dialects, how a
// subscription ends and where health persists — sits behind Seam; the
// paper puts the stacks' difference in exactly that transport seam
// ("the TCP vs. HTTP issue", §4.1.3).

// Default delivery-robustness knobs, applied by DefaultPolicy.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
	DefaultEvictAfter  = 3
)

// Policy is the delivery knobs a stack exposes. wsn.Producer and
// wse.Source embed it, so the fields read as their own.
type Policy struct {
	// Workers bounds the delivery worker pool; 0 selects GOMAXPROCS.
	// Width 1 forces sequential dispatch.
	Workers int
	// DeliveryTimeout caps each outbound delivery attempt so one slow
	// consumer cannot stall a fan-out batch; 0 means no per-attempt cap.
	DeliveryTimeout time.Duration
	// Retry governs per-consumer delivery attempts within one publish:
	// exponential backoff with jitter between attempts. The zero policy
	// performs a single attempt.
	Retry retry.Policy
	// EvictAfter ends a subscription after this many consecutive failed
	// publishes (each already retried per Retry). 0 disables eviction.
	EvictAfter int
}

// DefaultPolicy is 3 attempts per delivery and eviction after 3
// consecutive failed publishes.
func DefaultPolicy() Policy {
	return Policy{
		Retry: retry.Policy{
			MaxAttempts: DefaultMaxAttempts,
			BaseBackoff: DefaultBaseBackoff,
			MaxBackoff:  DefaultMaxBackoff,
		},
		EvictAfter: DefaultEvictAfter,
	}
}

// Health is the per-subscription delivery ledger: consecutive failed
// publishes (retries exhausted), the last error, and the last
// success/failure instants. Any successful delivery resets the failure
// count, so a flaky-but-recovering consumer is never evicted. Stacks
// persist it on transitions, not on every success, so a restarted
// producer resumes counting toward eviction.
type Health struct {
	ConsecutiveFailures int
	LastError           string
	LastSuccess         time.Time
	LastFailure         time.Time
}

// IsZero reports a never-touched health record.
func (h Health) IsZero() bool {
	return h.ConsecutiveFailures == 0 && h.LastError == "" &&
		h.LastSuccess.IsZero() && h.LastFailure.IsZero()
}

// Stats is a snapshot of an engine's delivery counters.
type Stats struct {
	// Attempts counts individual delivery attempts, retries included.
	Attempts int64
	// Retries counts attempts beyond the first per delivery.
	Retries int64
	// Deliveries counts messages that reached a consumer.
	Deliveries int64
	// Failures counts deliveries whose attempts were exhausted.
	Failures int64
	// FilterErrors counts subscriptions skipped by a failing filter
	// evaluation — a delivery fault against the subscription, not a
	// silent non-match.
	FilterErrors int64
	// Evictions counts subscriptions ended for delivery failure.
	Evictions int64
	// StateWriteErrors counts failed writes of delivery state (health
	// records, wsn's per-topic current messages). The in-memory state
	// stays authoritative, so these do not fail the publish.
	StateWriteErrors int64
	// EndNoticeErrors counts WS-Eventing SubscriptionEnd notices that
	// could not be delivered (always 0 for wsn, which has none).
	EndNoticeErrors int64
}

// Metrics is one stack's process-wide delivery counters, named
// ogsa_<stack>_*; every engine of that stack adds into them.
type Metrics struct {
	stack string
	attempts, retries, deliveries, failures, filterErrors, evictions,
	stateWriteErrors, endNoticeErrors, sent *obs.Counter
}

// NewMetrics registers a stack's delivery counters. endNotices adds
// ogsa_<stack>_end_notice_errors_total, for stacks that send one.
func NewMetrics(stack string, endNotices bool) *Metrics {
	c := func(name, help string) *obs.Counter {
		return obs.NewCounter("ogsa_"+stack+"_"+name, "", stack+" "+help)
	}
	m := &Metrics{
		stack:            stack,
		attempts:         c("delivery_attempts_total", "delivery attempts, retries included"),
		retries:          c("retries_total", "delivery attempts beyond the first per delivery"),
		deliveries:       c("deliveries_total", "messages that reached a consumer"),
		failures:         c("delivery_failures_total", "deliveries whose attempts were exhausted"),
		filterErrors:     c("filter_errors_total", "subscriptions skipped by a failing filter evaluation"),
		evictions:        c("evictions_total", "subscriptions ended for delivery failure"),
		stateWriteErrors: c("state_write_errors_total", "failed writes of delivery state"),
		sent:             c("messages_sent_total", "messages sent to consumers"),
	}
	if endNotices {
		m.endNoticeErrors = c("end_notice_errors_total", "SubscriptionEnd notices that could not be delivered")
	}
	return m
}

// count is one delivery fact, counted at one site both per engine
// (Stats) and process-wide (Metrics).
type count struct {
	n atomic.Int64
	g *obs.Counter
}

func (c *count) add(v int64) {
	c.n.Add(v)
	if c.g != nil {
		c.g.Add(v)
	}
}

// Seam is what one stack supplies to the engine. S is the stack's
// subscription type and P what one publish's deliveries share (built
// once by Prepare). The engine calls the seam through this interface
// with S and P as type arguments, so a delivery costs no boxing or
// closure beyond the stack's own work.
type Seam[S, P any] interface {
	// Subscriptions lists the live subscription set.
	Subscriptions() ([]S, error)
	// ID names a subscription: the health-ledger key.
	ID(sub S) string
	// Match reports whether sub takes the message; now is the publish
	// instant. An error is counted as a fault against sub.
	Match(sub S, topic string, msg *xmlutil.Element, now time.Time) (bool, error)
	// Prepare runs once per publish that matched at least one
	// subscription and returns what every delivery shares.
	Prepare(topic string, msg *xmlutil.Element) P
	// Send makes one delivery attempt.
	Send(ctx context.Context, sub S, p P) error
	// Evict ends sub for delivery failure and reports whether this call
	// removed it: the exactly-once gate for racing evictors and
	// explicit unsubscribes.
	Evict(sub S, cause error) bool
	// LoadHealth reads a persisted health record (zero if none).
	LoadHealth(id string) Health
	// SaveHealth persists a health record.
	SaveHealth(id string, h Health) error
}

// Engine is one producer's delivery pipeline.
type Engine[S, P any] struct {
	m      *Metrics
	policy *Policy
	now    func() time.Time
	seam   Seam[S, P]

	publishSpan, deliverSpan, faultEvent, evictEvent, retryEvent string

	attempts, retries, deliveries, failures, filterErrors, evictions,
	stateWriteErrors, endNoticeErrors, sent count

	// The health ledger, authoritative while the producer runs;
	// transitions write through to the seam.
	healthMu sync.Mutex
	health   map[string]*Health
}

// NewEngine builds an engine reading its knobs from policy (so they
// stay settable after construction) and its clock from now. Spans are
// named publishSpan (one per publish) and <stack>.deliver, recorder
// events <stack>.delivery_fault, <stack>.retry and <stack>.evict.
func NewEngine[S, P any](m *Metrics, publishSpan string, policy *Policy, now func() time.Time, seam Seam[S, P]) *Engine[S, P] {
	e := &Engine[S, P]{
		m: m, policy: policy, now: now, seam: seam,
		publishSpan: publishSpan,
		deliverSpan: m.stack + ".deliver",
		faultEvent:  m.stack + ".delivery_fault",
		evictEvent:  m.stack + ".evict",
		retryEvent:  m.stack + ".retry",
		health:      map[string]*Health{},
	}
	e.attempts.g, e.retries.g, e.deliveries.g, e.failures.g = m.attempts, m.retries, m.deliveries, m.failures
	e.filterErrors.g, e.evictions.g, e.stateWriteErrors.g = m.filterErrors, m.evictions, m.stateWriteErrors
	e.endNoticeErrors.g, e.sent.g = m.endNoticeErrors, m.sent
	return e
}

// Publish delivers one message to every matching subscription and
// returns how many deliveries succeeded, plus the first failure in
// subscription order. Matching runs up front on the caller's
// goroutine; the matched deliveries then fan out over a pool of
// Policy.Workers, each an independent exchange whose latency dominates
// the batch. ctx bounds retry backoff and the exchanges themselves.
func (e *Engine[S, P]) Publish(ctx context.Context, topic string, msg *xmlutil.Element) (int, error) {
	ctx, span := obs.StartSpan(ctx, e.publishSpan)
	span.SetAttr("topic", topic)
	defer span.End()
	subs, err := e.seam.Subscriptions()
	if err != nil {
		return 0, err
	}
	now := e.now()
	var matched []S
	for _, sub := range subs {
		ok, err := e.seam.Match(sub, topic, msg, now)
		if err != nil {
			e.filterErrors.add(1)
			e.recordFault(sub, fmt.Errorf("%s: filter evaluation for subscription %s: %w", e.m.stack, e.seam.ID(sub), err))
			continue
		}
		if ok {
			if matched == nil {
				// One allocation per publish, however many match.
				matched = make([]S, 0, len(subs))
			}
			matched = append(matched, sub)
		}
	}
	if len(matched) == 0 {
		return 0, nil
	}
	prep := e.seam.Prepare(topic, msg)
	span.SetAttr("matched", strconv.Itoa(len(matched)))
	errs := make([]error, len(matched))
	Do(len(matched), e.policy.Workers, func(i int) {
		sub := matched[i]
		if err := e.deliverWithRetry(ctx, sub, prep); err != nil {
			errs[i] = err
			e.failures.add(1)
			e.recordFault(sub, err)
			return
		}
		e.deliveries.add(1)
		e.recordSuccess(e.seam.ID(sub))
	})
	delivered := 0
	var firstErr error
	for _, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		delivered++
	}
	return delivered, firstErr
}

// deliverWithRetry runs one subscriber's delivery under the retry
// policy. The sent counter moves once per delivery (not per attempt),
// so MessagesSent measures fan-out amplification, not retry noise.
func (e *Engine[S, P]) deliverWithRetry(ctx context.Context, sub S, prep P) error {
	e.sent.add(1)
	id := e.seam.ID(sub)
	t0 := obs.Start()
	dctx, dspan := obs.StartSpan(ctx, e.deliverSpan)
	dspan.SetAttr("subscription", id)
	attempts, err := retry.Do(dctx, e.policy.Retry, func(actx context.Context) error {
		return e.seam.Send(actx, sub, prep)
	})
	obs.StageDeliver.ObserveSinceSpan(t0, dspan)
	e.attempts.add(int64(attempts))
	if attempts > 1 {
		e.retries.add(int64(attempts - 1))
		dspan.Annotate(fmt.Sprintf("retried: %d attempts", attempts))
		obs.RecordEventCtx(dctx, e.retryEvent,
			obs.Attr{K: "subscription", V: id},
			obs.Attr{K: "attempts", V: strconv.Itoa(attempts)})
	}
	dspan.Fail(err)
	dspan.End()
	return err
}

// entry returns (seeding from the seam on first sight) the mutable
// health record for id. Callers hold healthMu.
func (e *Engine[S, P]) entry(id string) *Health {
	h, ok := e.health[id]
	if !ok {
		seed := e.seam.LoadHealth(id)
		h = &seed
		e.health[id] = h
	}
	return h
}

// recordSuccess resets the failure count. It persists only on a recovery
// transition, so healthy steady-state publishing writes no health.
func (e *Engine[S, P]) recordSuccess(id string) {
	now := e.now()
	e.healthMu.Lock()
	h := e.entry(id)
	recovered := h.ConsecutiveFailures != 0 || h.LastError != ""
	h.ConsecutiveFailures = 0
	h.LastError = ""
	h.LastSuccess = now
	snap := *h
	e.healthMu.Unlock()
	if recovered {
		e.save(id, snap)
	}
}

// recordFault counts one failed publish (delivery exhaustion or filter
// error) against sub and evicts it once the consecutive-failure count
// reaches EvictAfter. Only the caller whose Evict removed the
// subscription counts the eviction.
func (e *Engine[S, P]) recordFault(sub S, cause error) {
	id := e.seam.ID(sub)
	now := e.now()
	e.healthMu.Lock()
	h := e.entry(id)
	h.ConsecutiveFailures++
	h.LastError = cause.Error()
	h.LastFailure = now
	evict := e.policy.EvictAfter > 0 && h.ConsecutiveFailures >= e.policy.EvictAfter
	snap := *h
	e.healthMu.Unlock()
	obs.RecordEvent(e.faultEvent,
		obs.Attr{K: "subscription", V: id},
		obs.Attr{K: "consecutive", V: strconv.Itoa(snap.ConsecutiveFailures)},
		obs.Attr{K: "err", V: cause.Error()})
	e.save(id, snap)
	if evict && e.seam.Evict(sub, cause) {
		e.DropHealth(id)
		e.evictions.add(1)
		obs.RecordEvent(e.evictEvent,
			obs.Attr{K: "subscription", V: id},
			obs.Attr{K: "cause", V: cause.Error()})
	}
}

func (e *Engine[S, P]) save(id string, h Health) {
	if err := e.seam.SaveHealth(id, h); err != nil {
		e.NoteStateWriteError(err)
	}
}

// Health returns the delivery-health record for a subscription (zero
// for unknown or never-delivered ids).
func (e *Engine[S, P]) Health(id string) Health {
	e.healthMu.Lock()
	h, ok := e.health[id]
	e.healthMu.Unlock()
	if ok {
		return *h
	}
	return e.seam.LoadHealth(id)
}

// DropHealth forgets a subscription's in-memory ledger; stacks call it
// whenever a subscription ends.
func (e *Engine[S, P]) DropHealth(id string) {
	e.healthMu.Lock()
	delete(e.health, id)
	e.healthMu.Unlock()
}

// NoteStateWriteError accounts a failed write of delivery state; the
// caller carries on with its in-memory state. The (non-nil) error is
// taken for call-site clarity; only the count is kept.
func (e *Engine[S, P]) NoteStateWriteError(error) { e.stateWriteErrors.add(1) }

// NoteEndNoticeError accounts a SubscriptionEnd notice that never
// reached its EndTo endpoint.
func (e *Engine[S, P]) NoteEndNoticeError(error) { e.endNoticeErrors.add(1) }

// MessagesSent reports how many messages this engine has pushed.
func (e *Engine[S, P]) MessagesSent() int64 { return e.sent.n.Load() }

// Stats snapshots the engine's delivery counters.
func (e *Engine[S, P]) Stats() Stats {
	return Stats{
		Attempts:         e.attempts.n.Load(),
		Retries:          e.retries.n.Load(),
		Deliveries:       e.deliveries.n.Load(),
		Failures:         e.failures.n.Load(),
		FilterErrors:     e.filterErrors.n.Load(),
		Evictions:        e.evictions.n.Load(),
		StateWriteErrors: e.stateWriteErrors.n.Load(),
		EndNoticeErrors:  e.endNoticeErrors.n.Load(),
	}
}
