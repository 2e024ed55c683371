// Whole-system integration tests: both software stacks, all three
// security modes, multiple concurrent users — the configurations the
// paper's evaluation spans, exercised end to end through real SOAP
// exchanges.
package altstacks_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/experiments"
	"altstacks/internal/fanout"
	"altstacks/internal/gridbox"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/xmldb"
)

// TestCounterAllScenarios drives the counter's full verb set through
// every (security × locality × stack) combination — the paper's 6
// scenarios × 2 stacks = 12 deployments.
func TestCounterAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("12 deployments with PKI")
	}
	for _, sc := range core.Scenarios() {
		for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
			sc, stack := sc, stack
			t.Run(fmt.Sprintf("%d-%s-%s", sc.Index, sc.Sec, stack), func(t *testing.T) {
				h, err := experiments.NewHello(sc, stack, xmldb.CostModel{})
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				for _, op := range h.Ops {
					if op.Prep != nil {
						if err := op.Prep(); err != nil {
							t.Fatalf("%s prep: %v", op.Name, err)
						}
					}
					// Notify runs past the eviction threshold: a delivery
					// booked as failed would be retried into a stale event,
					// or evicted into none.
					runs := 1
					if op.Name == "Notify" {
						runs = fanout.DefaultEvictAfter + 2
					}
					for i := 0; i < runs; i++ {
						if err := op.Run(); err != nil {
							t.Fatalf("%s run %d: %v", op.Name, i+1, err)
						}
					}
				}
			})
		}
	}
}

// TestBothVOsConcurrently runs the WSRF and WS-Transfer Grid-in-a-Box
// deployments side by side with three users submitting jobs in
// parallel on each — the multi-tenant condition a VO actually faces.
func TestBothVOsConcurrently(t *testing.T) {
	client := container.NewClient(container.ClientConfig{})

	// WSRF VO with three sites.
	wsrfC := container.New(container.SecurityNone)
	if _, err := gridbox.InstallWSRFVO(wsrfC, gridbox.WSRFVOConfig{
		DB: xmldb.NewMemory(xmldb.CostModel{}), DataRoot: t.TempDir(),
		Local: client, ReservationDelta: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wsrfC.Start(); err != nil {
		t.Fatal(err)
	}
	defer wsrfC.Close()

	// WS-Transfer VO with three sites.
	wstC := container.New(container.SecurityNone)
	if _, err := gridbox.InstallWSTVO(wstC, gridbox.WSTVOConfig{
		DB: xmldb.NewMemory(xmldb.CostModel{}), DataRoot: t.TempDir(), Local: client,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wstC.Start(); err != nil {
		t.Fatal(err)
	}
	defer wstC.Close()

	users := []string{"CN=u1", "CN=u2", "CN=u3"}
	admin := &gridbox.WSRFGridClient{C: client, Base: wsrfC.BaseURL(), UserDN: "CN=admin"}
	wstAdmin := gridbox.NewWSTGridClient(client, wstC.BaseURL(), "CN=admin")
	for i, u := range users {
		if err := admin.AddAccount(u); err != nil {
			t.Fatal(err)
		}
		if _, err := wstAdmin.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
		site := gridbox.Site{Host: fmt.Sprintf("node-%d", i), Applications: []string{"blast"}}
		if err := admin.RegisterSite(site); err != nil {
			t.Fatal(err)
		}
		if _, err := wstAdmin.RegisterSite(site); err != nil {
			t.Fatal(err)
		}
	}

	spec := gridbox.JobSpec{
		Application: "blast",
		Duration:    40 * time.Millisecond,
		OutputFiles: map[string]string{"out.dat": "ok"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(users)*2)
	for i, u := range users {
		wg.Add(2)
		// Pin each user to their own site so parallel reservations
		// don't contend (discovery races are exercised elsewhere).
		host := fmt.Sprintf("node-%d", i)
		go func(u string) {
			defer wg.Done()
			g := &gridbox.WSRFGridClient{C: client, Base: wsrfC.BaseURL(), UserDN: u}
			res, err := g.MakeReservation(host)
			if err != nil {
				errs <- fmt.Errorf("wsrf %s reserve: %w", u, err)
				return
			}
			dir, err := g.CreateDirectory()
			if err != nil {
				errs <- fmt.Errorf("wsrf %s dir: %w", u, err)
				return
			}
			job, err := g.InstantiateJob(spec, res, dir)
			if err != nil {
				errs <- fmt.Errorf("wsrf %s job: %w", u, err)
				return
			}
			if err := waitDone(func() (gridbox.JobStatus, error) { return g.JobStatus(job) }); err != nil {
				errs <- fmt.Errorf("wsrf %s: %w", u, err)
			}
		}(u)
		go func(u string) {
			defer wg.Done()
			g := gridbox.NewWSTGridClient(client, wstC.BaseURL(), u)
			if err := g.MakeReservation(host); err != nil {
				errs <- fmt.Errorf("wst %s reserve: %w", u, err)
				return
			}
			job, err := g.InstantiateJob(spec, host)
			if err != nil {
				errs <- fmt.Errorf("wst %s job: %w", u, err)
				return
			}
			if err := waitDone(func() (gridbox.JobStatus, error) { return g.JobStatus(job) }); err != nil {
				errs <- fmt.Errorf("wst %s: %w", u, err)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func waitDone(status func() (gridbox.JobStatus, error)) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := status()
		if err != nil {
			return err
		}
		if st.Done() {
			if st.ExitCode != 0 {
				return fmt.Errorf("exit code %d", st.ExitCode)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("job never completed")
}

// TestStackNeutralWorkloadParity runs one workload routine against
// both stacks and requires identical observable behavior — the §5
// switching-cost claim as an executable assertion.
func TestStackNeutralWorkloadParity(t *testing.T) {
	workload := func(cl counter.Client) (int, error) {
		epr, err := cl.Create(counter.Representation(100))
		if err != nil {
			return 0, err
		}
		stream, err := cl.SubscribeValueChanged(epr)
		if err != nil {
			return 0, err
		}
		defer stream.Cancel() //nolint:errcheck
		for i := 0; i < 3; i++ {
			if err := cl.Set(epr, counter.Representation(101+i)); err != nil {
				return 0, err
			}
			select {
			case <-stream.Events():
			case <-time.After(5 * time.Second):
				return 0, fmt.Errorf("notification %d missing", i)
			}
		}
		rep, err := cl.Get(epr)
		if err != nil {
			return 0, err
		}
		v, err := counter.Value(rep)
		if err != nil {
			return 0, err
		}
		return v, cl.Destroy(epr)
	}

	results := map[core.Stack]int{}
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		c := container.New(container.SecurityNone)
		client := container.NewClient(container.ClientConfig{})
		var cl counter.Client
		switch stack {
		case core.StackWSRF:
			counter.InstallWSRF(c, xmldb.NewMemory(xmldb.CostModel{}), client)
		case core.StackWST:
			store, err := wse.NewStore("")
			if err != nil {
				t.Fatal(err)
			}
			counter.InstallWST(c, xmldb.NewMemory(xmldb.CostModel{}), store, client)
		}
		base, err := c.Start()
		if err != nil {
			t.Fatal(err)
		}
		switch stack {
		case core.StackWSRF:
			cl = &counter.WSRFClient{C: client, Service: wsa.NewEPR(base + "/counter")}
		case core.StackWST:
			cl = counter.NewWSTClient(client, base)
		}
		v, err := workload(cl)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
		results[stack] = v
	}
	if results[core.StackWSRF] != results[core.StackWST] {
		t.Fatalf("workload results diverge: %v", results)
	}
	if results[core.StackWSRF] != 103 {
		t.Fatalf("final value = %d, want 103", results[core.StackWSRF])
	}
}

// TestSignedDeliveryAcks pins signed notification delivery. Consumer
// endpoints are unsigned containers, so the producer must book their
// acks as deliveries — no retry (which would duplicate the message),
// no failure, no eviction — over more publishes than the eviction
// threshold, on the counter and on both Grid-in-a-Box job-exit paths.
func TestSignedDeliveryAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("PKI")
	}
	fix, err := core.NewFixture(container.SecuritySign, netlat.CoLocated)
	if err != nil {
		t.Fatal(err)
	}
	publishes := fanout.DefaultEvictAfter + 2
	// Job-exit notifications fan out after RunJob can return (its status
	// poll may win), so wait for every delivery to settle.
	settled := func(t *testing.T, stats func() fanout.Stats) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		st := stats()
		for st.Deliveries+st.Failures < int64(publishes) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			st = stats()
		}
		if st.Deliveries != int64(publishes) || st.Retries != 0 || st.Failures != 0 || st.Evictions != 0 {
			t.Fatalf("signed delivery stats %+v, want %d deliveries and no retry, failure or eviction", st, publishes)
		}
	}
	spec := gridbox.JobSpec{
		Application: "blast",
		// Long enough for the job-exit subscription to land first.
		Duration:    200 * time.Millisecond,
		OutputFiles: map[string]string{"out.dat": "ok"},
	}
	sites := func(register func(gridbox.Site) error) {
		for i := 0; i < publishes; i++ {
			if err := register(gridbox.Site{Host: fmt.Sprintf("node-%d", i), Applications: []string{"blast"}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("counter", func(t *testing.T) {
		c := fix.NewContainer()
		svc := counter.InstallWSRF(c, xmldb.NewMemory(xmldb.CostModel{}), fix.NewNotifyClient())
		base, err := c.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl := &counter.WSRFClient{C: fix.NewClient(), Service: wsa.NewEPR(base + "/counter")}
		epr, err := cl.Create(counter.Representation(0))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := cl.SubscribeValueChanged(epr)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Cancel() //nolint:errcheck
		for v := 1; v <= publishes; v++ {
			if err := cl.Set(epr, counter.Representation(v)); err != nil {
				t.Fatal(err)
			}
			select {
			case ev := <-stream.Events():
				if got, err := counter.Value(ev.Message); err != nil || got != v {
					t.Fatalf("Set %d delivered value %d (%v)", v, got, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Set %d: notification never arrived", v)
			}
		}
		settled(t, svc.Producer.DeliveryStats)
	})

	t.Run("gridbox-wsrf", func(t *testing.T) {
		c := fix.NewContainer()
		vo, err := gridbox.InstallWSRFVO(c, gridbox.WSRFVOConfig{
			DB: xmldb.NewMemory(xmldb.CostModel{}), DataRoot: t.TempDir(),
			Local: fix.NewLocalClient(), ReservationDelta: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		g := &gridbox.WSRFGridClient{C: fix.NewClient(), Base: c.BaseURL()}
		if err := g.AddAccount(fix.ClientID.DN(), "run-jobs"); err != nil {
			t.Fatal(err)
		}
		sites(g.RegisterSite)
		for i := 0; i < publishes; i++ {
			if _, err := g.RunJob(spec, nil, 10*time.Second); err != nil {
				t.Fatalf("RunJob %d: %v", i+1, err)
			}
		}
		settled(t, vo.Producer.DeliveryStats)
	})

	t.Run("gridbox-wst", func(t *testing.T) {
		c := fix.NewContainer()
		vo, err := gridbox.InstallWSTVO(c, gridbox.WSTVOConfig{
			DB: xmldb.NewMemory(xmldb.CostModel{}), DataRoot: t.TempDir(), Local: fix.NewLocalClient(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		g := gridbox.NewWSTGridClient(fix.NewClient(), c.BaseURL(), "")
		if _, err := g.CreateAccount(fix.ClientID.DN(), "run-jobs"); err != nil {
			t.Fatal(err)
		}
		sites(func(s gridbox.Site) error { _, err := g.RegisterSite(s); return err })
		for i := 0; i < publishes; i++ {
			if _, err := g.RunJob(spec, nil, 10*time.Second); err != nil {
				t.Fatalf("RunJob %d: %v", i+1, err)
			}
		}
		settled(t, vo.Source.DeliveryStats)
	})
}
