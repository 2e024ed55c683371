// Package experiments assembles the paper's measured deployments —
// the "hello world" counter (Figures 2-4) and Grid-in-a-Box
// (Figure 6) — on either stack under any of the six scenarios, and
// exposes each figure's operations as timed closures. Both the
// testing.B benchmarks (bench_test.go) and the figure regenerator
// (cmd/figures) drive experiments through this package, so the two
// always measure identical code paths.
package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/gridbox"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/xmldb"
)

// Op is one measured operation: Prep runs outside the timed region
// (building the state the operation consumes), Run is the measured
// request.
type Op struct {
	Name string
	Prep func() error
	Run  func() error
	// Note annotates figure output (for example "automatic" for the
	// WSRF unreserve row).
	Note string
}

// fixtures are cached per security mode: RSA keypair generation is
// expensive and scenario-independent.
var (
	fixMu    sync.Mutex
	fixtures = map[container.SecurityMode]*core.Fixture{}
)

// FixtureFor returns the shared fixture for a scenario.
func FixtureFor(sc core.Scenario) (*core.Fixture, error) {
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixtures[sc.Sec]; ok {
		cp := *f
		cp.Link = sc.Link
		return &cp, nil
	}
	f, err := core.NewFixture(sc.Sec, netlat.CoLocated)
	if err != nil {
		return nil, err
	}
	fixtures[sc.Sec] = f
	cp := *f
	cp.Link = sc.Link
	return &cp, nil
}

// Hello is a running counter deployment plus the five measured
// operations of §4.1.3 (Get, Set, Create, Destroy, Notify).
type Hello struct {
	Ops   []Op
	Close func()
}

// NewHello deploys the counter on the given stack under the scenario.
// cost is the database cost model (XindiceProfile for figure runs, the
// zero model for fast smoke tests).
func NewHello(sc core.Scenario, stack core.Stack, cost xmldb.CostModel) (*Hello, error) {
	fix, err := FixtureFor(sc)
	if err != nil {
		return nil, err
	}
	c := fix.NewContainer()
	db := xmldb.NewMemory(cost)

	// Notifications travel from the service host to the client host, so
	// delivery crosses the scenario's link.
	notify := fix.NewNotifyClient()

	var cl counter.Client
	switch stack {
	case core.StackWSRF:
		svc := counter.InstallWSRF(c, db, notify)
		// Figure runs keep the paper's connection behavior: WSRF.NET
		// notification consumers accepted one-shot connections, so each
		// Notify pays connection setup (§4.1.3). The pooled default is
		// the optimized path and would erase exactly the TCP-vs-HTTP gap
		// Fig 2/3 exist to show.
		svc.Producer.Mode = container.DeliveryPerMessage
	case core.StackWST:
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		svc := counter.InstallWST(c, db, store, notify)
		// The raw-TCP delivery channel crosses the same link.
		svc.Source.TCP.WrapConn = sc.Link.Conn
	default:
		return nil, fmt.Errorf("experiments: unknown stack %q", stack)
	}
	baseURL, err := c.Start()
	if err != nil {
		return nil, err
	}
	client := fix.NewClient()
	switch stack {
	case core.StackWSRF:
		cl = &counter.WSRFClient{C: client, Service: wsa.NewEPR(baseURL + "/counter")}
	case core.StackWST:
		cl = counter.NewWSTClient(client, baseURL)
	}

	h := &Hello{Close: c.Close}

	// A long-lived counter for Get/Set, and a separate one for Notify
	// so Set iterations do not generate events that Notify would
	// mistake for its own.
	fixed, err := cl.Create(counter.Representation(0))
	if err != nil {
		c.Close()
		return nil, err
	}
	notifyCounter, err := cl.Create(counter.Representation(0))
	if err != nil {
		c.Close()
		return nil, err
	}
	// The notification subscription is established lazily by the Notify
	// operation's prep, matching the paper's methodology: each of the
	// five tests runs in isolation, so Get/Set/Create/Destroy are
	// measured with no subscriber registered.
	var stream core.EventStream
	prevClose := h.Close
	h.Close = func() {
		if stream != nil {
			stream.Cancel() //nolint:errcheck
		}
		prevClose()
	}

	value := 0
	var destroyTarget wsa.EPR
	notifyValue := 1000000 // distinct range so Notify events are unambiguous

	h.Ops = []Op{
		{Name: "Get", Run: func() error {
			_, err := cl.Get(fixed)
			return err
		}},
		{Name: "Set", Run: func() error {
			value++
			return cl.Set(fixed, counter.Representation(value))
		}},
		{Name: "Create", Run: func() error {
			_, err := cl.Create(counter.Representation(0))
			return err
		}},
		{Name: "Destroy",
			Prep: func() error {
				epr, err := cl.Create(counter.Representation(0))
				destroyTarget = epr
				return err
			},
			Run: func() error { return cl.Destroy(destroyTarget) },
		},
		{Name: "Notify",
			Prep: func() error {
				if stream != nil {
					return nil
				}
				var err error
				stream, err = cl.SubscribeValueChanged(notifyCounter)
				return err
			},
			Run: func() error {
				// §4.1.3: "measure the duration to first set the value of
				// the counter and then receive a message indicating that
				// the counter value has changed".
				// The event must carry the value just set: a stale or
				// duplicate event (a retried delivery) fails the op.
				notifyValue++
				if err := cl.Set(notifyCounter, counter.Representation(notifyValue)); err != nil {
					return err
				}
				select {
				case ev := <-stream.Events():
					if got, err := counter.Value(ev.Message); err != nil || got != notifyValue {
						return fmt.Errorf("experiments: notification carries value %d (%v), want %d", got, err, notifyValue)
					}
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("experiments: notification never arrived")
				}
			}},
	}
	return h, nil
}

// Grid is a running Grid-in-a-Box deployment plus the six measured
// operations of Figure 6.
type Grid struct {
	Ops []Op
	// UnreserveAutomatic marks the WSRF flavor, whose unreserve has no
	// client-visible cost ("un-reserving a resource also happens
	// automatically in the WSRF version (so no time is reported)").
	UnreserveAutomatic bool
	Close              func()
}

// gridUser is the grid user identity for unauthenticated scenarios; in
// signed scenarios the fixture's client certificate subject applies.
const gridUser = "CN=grid-client,O=UVA Grid Repro"

// NewGrid deploys Grid-in-a-Box on the given stack.
func NewGrid(sc core.Scenario, stack core.Stack, cost xmldb.CostModel, dataRoot string) (*Grid, error) {
	fix, err := FixtureFor(sc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	c := fix.NewContainer()
	db := xmldb.NewMemory(cost)
	local := fix.NewLocalClient()

	sites := []gridbox.Site{
		{Host: "node-a", Applications: []string{"blast"}},
		{Host: "node-b", Applications: []string{"blast"}},
		{Host: "node-c", Applications: []string{"blast"}},
	}
	spec := gridbox.JobSpec{Application: "blast", Duration: time.Millisecond, ExitCode: 0}

	switch stack {
	case core.StackWSRF:
		return newWSRFGrid(c, fix, db, local, dataRoot, sites, spec)
	case core.StackWST:
		return newWSTGrid(c, fix, db, local, dataRoot, sites, spec)
	}
	return nil, fmt.Errorf("experiments: unknown stack %q", stack)
}

func newWSRFGrid(c *container.Container, fix *core.Fixture, db *xmldb.DB,
	local *container.Client, dataRoot string, sites []gridbox.Site, spec gridbox.JobSpec) (*Grid, error) {
	_, err := gridbox.InstallWSRFVO(c, gridbox.WSRFVOConfig{
		DB: db, DataRoot: dataRoot, Local: local, ReservationDelta: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	baseURL, err := c.Start()
	if err != nil {
		return nil, err
	}
	g := &gridbox.WSRFGridClient{C: fix.NewClient(), Base: baseURL, UserDN: gridUser}
	if err := g.AddAccount(gridUser, "run-jobs"); err != nil {
		c.Close()
		return nil, err
	}
	for _, s := range sites {
		if err := g.RegisterSite(s); err != nil {
			c.Close()
			return nil, err
		}
	}
	// A standing directory for the file operations.
	dir, err := g.CreateDirectory()
	if err != nil {
		c.Close()
		return nil, err
	}

	var lastReservation wsa.EPR
	var jobRes, jobDir wsa.EPR
	fileN := 0
	grid := &Grid{UnreserveAutomatic: true, Close: c.Close}
	grid.Ops = []Op{
		{Name: "Get Available Resource", Run: func() error {
			_, err := g.GetAvailableResources("blast")
			return err
		}},
		{Name: "Make Reservation",
			Prep: func() error {
				if !lastReservation.IsZero() {
					_ = g.DestroyReservation(lastReservation)
					lastReservation = wsa.EPR{}
				}
				return nil
			},
			Run: func() error {
				epr, err := g.MakeReservation("node-a")
				lastReservation = epr
				return err
			},
		},
		{Name: "Upload File", Run: func() error {
			fileN++
			return g.UploadFile(dir, fmt.Sprintf("bench-%d.dat", fileN), "payload")
		}},
		{Name: "Instantiate Job",
			Prep: func() error {
				// A fresh reservation and directory per job; the prior
				// job's reservation auto-destroys on exit.
				epr, err := g.MakeReservation("node-b")
				if err != nil {
					// node-b may still be held by the previous iteration's
					// auto-unreserve in flight; wait for it.
					deadline := time.Now().Add(10 * time.Second)
					for time.Now().Before(deadline) {
						time.Sleep(2 * time.Millisecond)
						if epr, err = g.MakeReservation("node-b"); err == nil {
							break
						}
					}
					if err != nil {
						return err
					}
				}
				jobRes = epr
				if jobDir.IsZero() {
					jobDir, err = g.CreateDirectory()
					if err != nil {
						return err
					}
				}
				return nil
			},
			Run: func() error {
				_, err := g.InstantiateJob(spec, jobRes, jobDir)
				return err
			},
		},
		{Name: "Delete File",
			Prep: func() error {
				fileN++
				return g.UploadFile(dir, fmt.Sprintf("del-%d.dat", fileN), "x")
			},
			Run: func() error {
				return g.DeleteFile(dir, fmt.Sprintf("del-%d.dat", fileN))
			},
		},
		{Name: "Unreserve Resource",
			Run:  func() error { return nil },
			Note: "automatic (resource lifetime)",
		},
	}
	return grid, nil
}

func newWSTGrid(c *container.Container, fix *core.Fixture, db *xmldb.DB,
	local *container.Client, dataRoot string, sites []gridbox.Site, spec gridbox.JobSpec) (*Grid, error) {
	_, err := gridbox.InstallWSTVO(c, gridbox.WSTVOConfig{
		DB: db, DataRoot: dataRoot, Local: local,
	})
	if err != nil {
		return nil, err
	}
	baseURL, err := c.Start()
	if err != nil {
		return nil, err
	}
	g := gridbox.NewWSTGridClient(fix.NewClient(), baseURL, gridUser)
	if _, err := g.CreateAccount(gridUser, "run-jobs"); err != nil {
		c.Close()
		return nil, err
	}
	for _, s := range sites {
		if _, err := g.RegisterSite(s); err != nil {
			c.Close()
			return nil, err
		}
	}
	// Standing reservation on node-c backs the file operations.
	if err := g.MakeReservation("node-c"); err != nil {
		c.Close()
		return nil, err
	}

	reservedA := false
	reservedB := false
	unresArmed := false
	fileN := 0
	grid := &Grid{Close: c.Close}
	grid.Ops = []Op{
		{Name: "Get Available Resource", Run: func() error {
			_, err := g.GetAvailableResources("blast")
			return err
		}},
		{Name: "Make Reservation",
			Prep: func() error {
				if reservedA {
					if err := g.UnreserveResource("node-a"); err != nil {
						return err
					}
					reservedA = false
				}
				return nil
			},
			Run: func() error {
				err := g.MakeReservation("node-a")
				reservedA = err == nil
				return err
			},
		},
		{Name: "Upload File", Run: func() error {
			fileN++
			_, err := g.UploadFile("node-c", fmt.Sprintf("bench-%d.dat", fileN), "payload")
			return err
		}},
		{Name: "Instantiate Job",
			Prep: func() error {
				if !reservedB {
					if err := g.MakeReservation("node-b"); err != nil {
						return err
					}
					reservedB = true
				}
				return nil
			},
			Run: func() error {
				_, err := g.InstantiateJob(spec, "node-b")
				return err
			},
		},
		{Name: "Delete File",
			Prep: func() error {
				fileN++
				_, err := g.UploadFile("node-c", fmt.Sprintf("del-%d.dat", fileN), "x")
				return err
			},
			Run: func() error {
				return g.DeleteFile(fmt.Sprintf("del-%d.dat", fileN))
			},
		},
		{Name: "Unreserve Resource",
			Prep: func() error {
				if !unresArmed {
					// node-a may be free or held depending on interleaving;
					// normalize to held.
					if !reservedA {
						if err := g.MakeReservation("node-a"); err != nil {
							return err
						}
						reservedA = true
					}
					unresArmed = true
				} else {
					if err := g.MakeReservation("node-a"); err != nil {
						return err
					}
				}
				return nil
			},
			Run: func() error {
				err := g.UnreserveResource("node-a")
				reservedA = err != nil
				return err
			},
			Note: "manual (Put, unreserve mode)",
		},
	}
	return grid, nil
}
