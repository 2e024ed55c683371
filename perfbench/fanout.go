package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/wse"
	"altstacks/internal/wsn"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// fanout-1k sizing: cmd/loadgen's pubsub1k shape.
const (
	fanoutSubs      = 1000
	fanoutEndpoints = 32
	// fanoutBuffer holds one publish's worth of events per endpoint
	// with room to spare, so a sink never sheds.
	fanoutBuffer  = 256
	fanoutWarm    = 3 // warm-up publishes, part of set-up
	fanoutTopic   = "load/tick"
	fanoutNS      = "urn:perfbench"
	receiptWait   = 5 * time.Second
	maxSpreadKeep = 1 << 12
)

// endpoint is one consumer endpoint's receipt tally for the publish
// under way.
type endpoint struct {
	want  int64 // subscriptions at this endpoint
	got   atomic.Int64
	wrong atomic.Int64
}

type fanoutDeploy struct {
	c         *container.Container
	db        *xmldb.DB
	publish   func(*xmlutil.Element) (int, error)
	delivery  func() deliveryCounts
	eps       []*endpoint
	closers   []func()
	done      chan struct{}
	rnd       *rand.Rand   // draws the value each publish carries
	expect    atomic.Int64 // payload value of the publish under way
	received  atomic.Int64
	allIn     chan struct{}
	first     atomic.Int64 // unix ns of the first receipt
	last      atomic.Int64
	spreadsMs []float64
	published atomic.Int64
}

func deployFanout(stack string, seed int64, tr *tracer) (*fanoutDeploy, error) {
	d := &fanoutDeploy{
		c:     container.New(container.SecurityNone),
		db:    xmldb.New(tr.wrapBackend(xmldb.NewMemoryBackend()), xmldb.CostModel{}),
		done:  make(chan struct{}),
		allIn: make(chan struct{}, 1),
	}
	d.rnd = newRand(seed, streamPayload, 0)
	d.closers = append(d.closers, d.c.Close)
	setup := container.NewClient(container.ClientConfig{})
	deliver := container.NewClient(container.ClientConfig{})
	tr.wrapClient(deliver, exchDelivery, nil)

	// Which endpoints carry one subscription more follows the seed.
	perm := permutation(seed, 1, fanoutEndpoints)
	for i := 0; i < fanoutEndpoints; i++ {
		want := int64(fanoutSubs / fanoutEndpoints)
		if perm[i] < fanoutSubs%fanoutEndpoints {
			want++
		}
		d.eps = append(d.eps, &endpoint{want: want})
	}

	var subscribe func(i int) error
	switch stack {
	case stackWSRF:
		p := wsn.NewProducer(d.db, "subs", func() string { return d.c.BaseURL() + "/manager" }, deliver)
		svc := &container.Service{Path: "/producer", Actions: p.ProducerPortType().Actions()}
		d.c.Register(svc)
		d.c.Register(p.ManagerService("/manager"))
		d.publish = func(msg *xmlutil.Element) (int, error) { return p.Notify(fanoutTopic, msg) }
		d.delivery = func() deliveryCounts {
			s := p.DeliveryStats()
			return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Failures}
		}
		subscribe = func(i int) error {
			cons, err := wsn.NewConsumer(fanoutBuffer)
			if err != nil {
				return err
			}
			d.closers = append(d.closers, cons.Close)
			go d.drain(d.eps[i], func() (*xmlutil.Element, bool) {
				select {
				case n := <-cons.Ch:
					return n.Message, true
				case <-d.done:
					return nil, false
				}
			})
			for j := int64(0); j < d.eps[i].want; j++ {
				if _, err := wsn.Subscribe(setup, d.c.EPR("/producer"), cons.EPR(),
					wsn.SubscribeOptions{Topic: wsn.Concrete(fanoutTopic)}); err != nil {
					return err
				}
			}
			return nil
		}
	case stackWST:
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		src := wse.NewSource(store, func() string { return d.c.BaseURL() + "/manager" }, deliver)
		d.closers = append(d.closers, src.TCP.Close)
		d.c.Register(src.SourceService("/source"))
		d.c.Register(src.ManagerService("/manager"))
		d.publish = func(msg *xmlutil.Element) (int, error) { return src.Publish(fanoutTopic, msg) }
		d.delivery = func() deliveryCounts {
			s := src.DeliveryStats()
			return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Failures}
		}
		subscribe = func(i int) error {
			sink, err := wse.NewHTTPSink(fanoutBuffer)
			if err != nil {
				return err
			}
			d.closers = append(d.closers, sink.Close)
			go d.drain(d.eps[i], func() (*xmlutil.Element, bool) {
				select {
				case ev := <-sink.Ch:
					return ev.Message, true
				case <-d.done:
					return nil, false
				}
			})
			for j := int64(0); j < d.eps[i].want; j++ {
				if _, err := wse.Subscribe(setup, d.c.EPR("/source"), wse.SubscribeOptions{
					NotifyTo: sink.EPR(), Filter: wse.TopicFilter("load/*")}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if _, err := d.c.Start(); err != nil {
		d.close()
		return nil, err
	}
	for i := range d.eps {
		if err := subscribe(i); err != nil {
			d.close()
			return nil, err
		}
	}
	warm := &recorder{}
	for n := 0; n < fanoutWarm; n++ {
		d.step(0, warm)
	}
	if warm.failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %s", warm.notes[0])
	}
	d.spreadsMs = d.spreadsMs[:0]
	return d, nil
}

// drain counts one endpoint's receipts and stamps the first and last
// receipt of each publish.
func (d *fanoutDeploy) drain(ep *endpoint, recv func() (*xmlutil.Element, bool)) {
	for {
		msg, ok := recv()
		if !ok {
			return
		}
		now := time.Now().UnixNano()
		d.first.CompareAndSwap(0, now)
		d.last.Store(now)
		if v, err := strconv.ParseInt(msg.ChildText(fanoutNS, "V"), 10, 64); err != nil || v != d.expect.Load() {
			ep.wrong.Add(1)
		}
		ep.got.Add(1)
		if d.received.Add(1) == fanoutSubs {
			d.allIn <- struct{}{}
		}
	}
}

func (d *fanoutDeploy) clients() int { return 1 }

// step is one publish. The op is the publish call; receipts are then
// checked endpoint by endpoint, and the delivery counters must show no
// retry and no failure.
func (d *fanoutDeploy) step(_ int, r *recorder) {
	v := d.rnd.Int64N(1 << 40)
	select {
	case <-d.allIn: // left by a publish that failed after all receipts
	default:
	}
	for _, ep := range d.eps {
		ep.got.Store(0)
		ep.wrong.Store(0)
	}
	d.received.Store(0)
	d.first.Store(0)
	d.expect.Store(v)
	msg := xmlutil.New(fanoutNS, "Ev").Add(xmlutil.NewText(fanoutNS, "V", strconv.FormatInt(v, 10)))
	before := d.delivery()
	d.published.Add(1)
	start := r.begin()
	n, err := d.publish(msg)
	if err == nil && n != fanoutSubs {
		err = fmt.Errorf("delivered %d of %d", n, fanoutSubs)
	}
	if err != nil {
		r.fail("Publish", err, false)
		return
	}
	if err := d.checkReceipts(before); err != nil {
		r.fail("Publish", err, true)
		return
	}
	r.ok("Publish", start, 0, 0)
	if len(d.spreadsMs) < maxSpreadKeep {
		d.spreadsMs = append(d.spreadsMs, float64(d.last.Load()-d.first.Load())/1e6)
	}
}

func (d *fanoutDeploy) checkReceipts(before deliveryCounts) error {
	select {
	case <-d.allIn:
	case <-time.After(receiptWait):
		return fmt.Errorf("%d of %d events received", d.received.Load(), fanoutSubs)
	}
	for i, ep := range d.eps {
		if got, wrong := ep.got.Load(), ep.wrong.Load(); got != ep.want || wrong != 0 {
			return fmt.Errorf("endpoint %d: %d events (%d wrong), want %d", i, got, wrong, ep.want)
		}
	}
	after := d.delivery()
	if after.retries != before.retries || after.failures != before.failures {
		return fmt.Errorf("delivery stats moved by %d retries and %d failures",
			after.retries-before.retries, after.failures-before.failures)
	}
	return nil
}

func (d *fanoutDeploy) check() error { return nil }

func (d *fanoutDeploy) probe() probe {
	return probe{
		dbs:       []*xmldb.DB{d.db},
		delivery:  d.delivery,
		publishes: d.published.Load,
		spreads:   func() []float64 { return d.spreadsMs },
	}
}

func (d *fanoutDeploy) close() {
	close(d.done)
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}
