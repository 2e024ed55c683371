package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/xmldb"
)

// counter-mix sizing.
const (
	counterClients = 2
	// counterPopulation exceeds xmldb.DocCacheCap by half, so part of
	// the Zipf tail of Get/Set misses the parsed-document cache. Most
	// parses still come from Sets invalidating cached copies and from
	// Creates; README.md gives the measured shares.
	counterPopulation = xmldb.DocCacheCap * 3 / 2
	// destroyPool is how many created counters may wait for a Destroy;
	// a Create beyond it destroys its own counter, as cmd/loadgen does.
	destroyPool = 1024
	destroySeed = 64
	counterWarm = 1500 // warm-up ops per client, part of set-up
	notifyWait  = 5 * time.Second
)

// writtenSet is every value ever written to one counter.
type writtenSet struct {
	mu   sync.Mutex
	vals map[int]struct{}
}

func (w *writtenSet) add(v int) {
	w.mu.Lock()
	w.vals[v] = struct{}{}
	w.mu.Unlock()
}

func (w *writtenSet) has(v int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.vals[v]
	return ok
}

type counterClient struct {
	cl      counter.Client
	ops     *opStream
	ctr     wsa.EPR // this client's own Notify counter
	stream  core.EventStream
	notifys atomic.Int64
}

type counterDeploy struct {
	c        *container.Container
	db       *xmldb.DB
	pop      []wsa.EPR
	written  []writtenSet
	pool     chan wsa.EPR
	cls      []*counterClient
	values   atomic.Int64 // every written value is unique
	delivery func() deliveryCounts
}

func deployCounter(stack string, seed int64, clients int, tr *tracer) (*counterDeploy, error) {
	d := &counterDeploy{
		db:      xmldb.New(tr.wrapBackend(xmldb.NewMemoryBackend()), xmldb.CostModel{}),
		pop:     make([]wsa.EPR, counterPopulation),
		written: make([]writtenSet, counterPopulation),
		pool:    make(chan wsa.EPR, destroyPool),
		c:       container.New(container.SecurityNone),
	}
	notify := container.NewClient(container.ClientConfig{})
	tr.wrapClient(notify, exchDelivery, nil)
	switch stack {
	case stackWSRF:
		svc := counter.InstallWSRF(d.c, d.db, notify)
		// The figure harness's delivery: a connection per notification.
		svc.Producer.Mode = container.DeliveryPerMessage
		d.delivery = func() deliveryCounts {
			s := svc.Producer.DeliveryStats()
			return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Failures}
		}
	case stackWST:
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		svc := counter.InstallWST(d.c, d.db, store, notify)
		svc.Source.TCP.WrapConn = tr.wrapConn()
		d.delivery = func() deliveryCounts {
			s := svc.Source.DeliveryStats()
			return deliveryCounts{s.Attempts, s.Retries, s.Deliveries, s.Failures}
		}
	}
	for k := range d.written {
		d.written[k].vals = map[int]struct{}{}
	}
	base, err := d.c.Start()
	if err != nil {
		return nil, err
	}
	perm := permutation(seed, 0, counterPopulation)
	for i := 0; i < clients; i++ {
		hc := container.NewClient(container.ClientConfig{})
		tr.wrapClient(hc, exchTop, tr.cur(i))
		var cl counter.Client
		if stack == stackWSRF {
			cl = &counter.WSRFClient{C: hc, Service: wsa.NewEPR(base + "/counter")}
		} else {
			cl = counter.NewWSTClient(hc, base)
		}
		d.cls = append(d.cls, &counterClient{cl: cl, ops: newOpStream(seed, i, perm)})
	}
	if err := d.populate(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// populate creates the standing population, the Destroy pool's head
// start and each client's Notify counter and subscription, then warms
// up with each client's first ops.
func (d *counterDeploy) populate() error {
	errs := make([]error, len(d.cls))
	var wg sync.WaitGroup
	for i, cc := range d.cls {
		wg.Add(1)
		go func(i int, cc *counterClient) {
			defer wg.Done()
			errs[i] = d.populateShare(i, cc)
		}(i, cc)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, cc := range d.cls {
		wg.Add(1)
		go func(i int, cc *counterClient) {
			defer wg.Done()
			r := &recorder{}
			for n := 0; n < counterWarm; n++ {
				d.step(i, r)
			}
			if r.failed > 0 {
				errs[i] = fmt.Errorf("warm-up: %s", r.notes[0])
			}
		}(i, cc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// populateShare creates client i's share of the population, its
// share of the Destroy pool's head start, and its Notify counter and
// subscription.
func (d *counterDeploy) populateShare(i int, cc *counterClient) error {
	for k := i; k < counterPopulation; k += len(d.cls) {
		v := int(d.values.Add(1))
		d.written[k].add(v)
		epr, err := cc.cl.Create(counter.Representation(v))
		if err != nil {
			return err
		}
		d.pop[k] = epr
	}
	for k := 0; k < destroySeed/len(d.cls); k++ {
		epr, err := cc.cl.Create(counter.Representation(0))
		if err != nil {
			return err
		}
		d.pool <- epr
	}
	var err error
	if cc.ctr, err = cc.cl.Create(counter.Representation(0)); err != nil {
		return err
	}
	cc.stream, err = cc.cl.SubscribeValueChanged(cc.ctr)
	return err
}

func (d *counterDeploy) clients() int { return len(d.cls) }

func (d *counterDeploy) step(c int, r *recorder) {
	cc := d.cls[c]
	op := cc.ops.next()
	start := r.begin()
	var call, wait time.Duration
	var err error
	wrong := false
	switch op.kind {
	case opGet:
		call, err = timed(func() error {
			rep, err := cc.cl.Get(d.pop[op.target])
			if err != nil {
				return err
			}
			v, err := counter.Value(rep)
			if err != nil {
				wrong = true
				return err
			}
			if !d.written[op.target].has(v) {
				wrong = true
				return fmt.Errorf("counter %d read %d, a value never written to it", op.target, v)
			}
			return nil
		})
	case opSet:
		v := int(d.values.Add(1))
		d.written[op.target].add(v)
		call, err = timed(func() error { return cc.cl.Set(d.pop[op.target], counter.Representation(v)) })
	case opCreate:
		call, err = timed(func() error {
			epr, err := cc.cl.Create(counter.Representation(0))
			if err != nil {
				return err
			}
			select {
			case d.pool <- epr:
				return nil
			default:
				return cc.cl.Destroy(epr)
			}
		})
	case opDestroy:
		call, err = timed(func() error {
			select {
			case epr := <-d.pool:
				return cc.cl.Destroy(epr)
			default:
				epr, err := cc.cl.Create(counter.Representation(0))
				if err != nil {
					return err
				}
				return cc.cl.Destroy(epr)
			}
		})
	case opNotify:
		cc.notifys.Add(1)
		v := int(d.values.Add(1))
		call, err = timed(func() error { return cc.cl.Set(cc.ctr, counter.Representation(v)) })
		if err == nil {
			wait, err = timed(func() error { return awaitValue(cc.stream, v) })
			wrong = err != nil
		}
	}
	if err != nil {
		r.fail(op.kind.String(), err, wrong)
		return
	}
	r.ok(op.kind.String(), start, call, wait)
}

// awaitValue waits for the event carrying v. Any other value first is a
// wrong delivery (a retried duplicate, or a lost event); the wait still
// runs on to v so one fault fails one op, not every later one.
func awaitValue(s core.EventStream, v int) error {
	deadline := time.NewTimer(notifyWait)
	defer deadline.Stop()
	var wrong error
	for {
		select {
		case ev := <-s.Events():
			got, err := counter.Value(ev.Message)
			if err != nil {
				return err
			}
			if got == v {
				return wrong
			}
			if wrong == nil {
				wrong = fmt.Errorf("notification carried %d, want %d", got, v)
			}
		case <-deadline.C:
			return fmt.Errorf("notification with %d never arrived", v)
		}
	}
}

func (d *counterDeploy) check() error {
	// Every op checks its own output; nothing is left for the end.
	return nil
}

func (d *counterDeploy) probe() probe {
	return probe{
		dbs:      []*xmldb.DB{d.db},
		delivery: d.delivery,
		publishes: func() int64 {
			var n int64
			for _, cc := range d.cls {
				n += cc.notifys.Load()
			}
			return n
		},
		deliveryInHandler: true,
	}
}

func (d *counterDeploy) close() {
	for _, cc := range d.cls {
		if cc.stream != nil {
			cc.stream.Cancel() //nolint:errcheck // teardown
		}
	}
	d.c.Close()
}
