package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/gridbox"
	"altstacks/internal/procsim"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
)

// signed-vo sizing. The standing sites give GetAvailableResources a
// scan; every fourth lacks the application, so the scan also filters.
const (
	voSites     = 32
	voApp       = "blast"
	voOtherApp  = "povray"
	voStanding  = "input.dat" // the one file every listing must show
	voWarm      = 2           // warm-up cycles, part of set-up
	jobWait     = 5 * time.Second
	fileContent = 192 // bytes per uploaded file
)

var voJob = gridbox.JobSpec{Application: voApp, Duration: time.Millisecond, ExitCode: 0}

// voClient is the stack-specific half of a Fig-6 cycle.
type voClient interface {
	available() ([]gridbox.Site, error)
	reserve(host string) error
	upload(host, name, content string) error
	instantiate(host string) (wsa.EPR, error)
	deleteFile(name string) error
	listFiles() ([]string, error)

	// The untimed calls that restore the standing state go through a
	// second client, which the traced run leaves unwrapped, so their
	// exchanges belong to no op.
	destroyJob(job wsa.EPR) error
	release(host string) error
	removeFile(name string) error
}

type voDeploy struct {
	c  *container.Container
	db *xmldb.DB
	cl voClient
	// unreserve is the manual WST op; nil on WSRF, where the job's exit
	// releases the reservation without a request.
	unreserve func(host string) error
	procs     *procsim.Table
	hosts     []string // blast sites, in seeded cycle order
	cycle     int
	rnd       *rand.Rand // draws the uploaded file contents
	dataDir   string
}

func deployVO(stack string, seed int64, fix *core.Fixture, dataRoot string, tr *tracer) (*voDeploy, error) {
	d := &voDeploy{
		c:       fix.NewContainer(),
		db:      xmldb.New(tr.wrapBackend(xmldb.NewMemoryBackend()), xmldb.CostModel{}),
		dataDir: dataRoot,
	}
	d.rnd = newRand(seed, streamPayload, 0)
	local := fix.NewLocalClient()
	tr.wrapClient(local, exchOutcall, nil)
	user := fix.NewClient()
	tr.wrapClient(user, exchTop, tr.cur(0))
	quiet := fix.NewClient()
	dn := fix.ClientID.DN()

	var sites []gridbox.Site
	for i := 0; i < voSites; i++ {
		app := voApp
		if i%4 == 3 {
			app = voOtherApp
		}
		sites = append(sites, gridbox.Site{Host: fmt.Sprintf("site-%02d", i), Applications: []string{app}})
	}
	for _, i := range permutation(seed, 2, voSites) {
		if sites[i].HasApplication(voApp) {
			d.hosts = append(d.hosts, sites[i].Host)
		}
	}

	switch stack {
	case stackWSRF:
		vo, err := gridbox.InstallWSRFVO(d.c, gridbox.WSRFVOConfig{
			DB: d.db, DataRoot: dataRoot, Local: local, ReservationDelta: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		d.procs = vo.Procs
		base, err := d.c.Start()
		if err != nil {
			return nil, err
		}
		g := &gridbox.WSRFGridClient{C: user, Base: base, UserDN: dn}
		w := &wsrfVO{g: g, quiet: &gridbox.WSRFGridClient{C: quiet, Base: base, UserDN: dn}}
		d.cl = w
		if err := g.AddAccount(dn, "run-jobs"); err != nil {
			d.close()
			return nil, err
		}
		for _, s := range sites {
			if err := g.RegisterSite(s); err != nil {
				d.close()
				return nil, err
			}
		}
		if w.dir, err = g.CreateDirectory(); err != nil {
			d.close()
			return nil, err
		}
		if err := g.UploadFile(w.dir, voStanding, d.content()); err != nil {
			d.close()
			return nil, err
		}
	case stackWST:
		vo, err := gridbox.InstallWSTVO(d.c, gridbox.WSTVOConfig{DB: d.db, DataRoot: dataRoot, Local: local})
		if err != nil {
			return nil, err
		}
		d.procs = vo.Procs
		base, err := d.c.Start()
		if err != nil {
			return nil, err
		}
		g := gridbox.NewWSTGridClient(user, base, dn)
		d.cl = &wstVO{g: g, quiet: gridbox.NewWSTGridClient(quiet, base, dn)}
		d.unreserve = g.UnreserveResource
		if _, err := g.CreateAccount(dn, "run-jobs"); err != nil {
			d.close()
			return nil, err
		}
		for _, s := range sites {
			if _, err := g.RegisterSite(s); err != nil {
				d.close()
				return nil, err
			}
		}
		// The standing file rides on a reservation that is released
		// again, so every cycle starts with all sites free.
		host := d.hosts[0]
		if err := g.MakeReservation(host); err != nil {
			d.close()
			return nil, err
		}
		if _, err := g.UploadFile(host, voStanding, d.content()); err != nil {
			d.close()
			return nil, err
		}
		if err := g.UnreserveResource(host); err != nil {
			d.close()
			return nil, err
		}
	}
	warm := &recorder{}
	for n := 0; n < voWarm; n++ {
		d.step(0, warm)
	}
	if warm.failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %s", warm.notes[0])
	}
	return d, nil
}

func (d *voDeploy) clients() int { return 1 }

// content draws one uploaded file's text.
func (d *voDeploy) content() string {
	b := make([]byte, fileContent)
	for i := range b {
		b[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[d.rnd.IntN(36)]
	}
	return string(b)
}

// step is one Fig-6 cycle on the next site in the seeded order. Each
// op is timed on its own; the job's exit is then checked in the
// process table and its resource destroyed, untimed and not an op, so
// the next cycle finds the VO as this one did. A failed op leaves
// behind what it would have removed, so the cycle removes it by hand:
// one fault fails one op, not every later cycle.
func (d *voDeploy) step(_ int, r *recorder) {
	host := d.hosts[d.cycle%len(d.hosts)]
	name := fmt.Sprintf("c%06d.dat", d.cycle)
	d.cycle++
	content := d.content()

	run := func(op string, fn func() error) bool {
		start := r.begin()
		call, err := timed(fn)
		if err != nil {
			r.fail(op, err, false)
			return false
		}
		r.ok(op, start, call, 0)
		return true
	}
	check := func(op string, err error) bool {
		if err != nil {
			r.fail(op, err, true)
			return false
		}
		return true
	}

	var avail []gridbox.Site
	if !run("GetAvailableResource", func() (err error) { avail, err = d.cl.available(); return err }) ||
		!check("GetAvailableResource", d.checkAvailable(avail)) ||
		!run("MakeReservation", func() error { return d.cl.reserve(host) }) {
		return
	}
	var job wsa.EPR
	if !run("UploadFile", func() error { return d.cl.upload(host, name, content) }) ||
		!run("InstantiateJob", func() (err error) { job, err = d.cl.instantiate(host); return err }) {
		// No job will release the reservation.
		d.cl.removeFile(name) //nolint:errcheck // best effort: the upload may not have landed
		d.cl.release(host)    //nolint:errcheck // best effort
		return
	}
	if !run("DeleteFile", func() error { return d.cl.deleteFile(name) }) {
		d.cl.removeFile(name) //nolint:errcheck // best effort
	}
	if d.unreserve != nil && !run("UnreserveResource", func() error { return d.unreserve(host) }) {
		d.cl.release(host) //nolint:errcheck // best effort
	}
	check("InstantiateJob", d.finishJob(job))
}

// checkAvailable: at the start of a cycle no site is reserved, so the
// query must return exactly the sites that have the application.
func (d *voDeploy) checkAvailable(got []gridbox.Site) error {
	hosts := make([]string, 0, len(got))
	for _, s := range got {
		hosts = append(hosts, s.Host)
	}
	want := slices.Clone(d.hosts)
	slices.Sort(want)
	slices.Sort(hosts)
	if !slices.Equal(hosts, want) {
		return fmt.Errorf("available sites %v, want %v", hosts, want)
	}
	return nil
}

// finishJob waits for the job to exit (on WSRF that includes the
// automatic unreserve, which runs before the process is marked done),
// checks it exited with code 0, and destroys its resource.
func (d *voDeploy) finishJob(job wsa.EPR) error {
	id, ok := job.Property(gridbox.NS, "JobID")
	if !ok {
		return fmt.Errorf("job EPR carries no JobID")
	}
	st, err := d.procs.Wait(id, jobWait)
	if err != nil {
		return err
	}
	if st.State != procsim.StateExited || st.ExitCode != 0 {
		return fmt.Errorf("job %s ended %s with code %d", id, st.State, st.ExitCode)
	}
	return d.cl.destroyJob(job)
}

// check: every cycle deleted what it uploaded, so the listing shows
// the standing file alone.
func (d *voDeploy) check() error {
	files, err := d.cl.listFiles()
	if err != nil {
		return fmt.Errorf("list files: %w", err)
	}
	if !slices.Equal(files, []string{voStanding}) {
		return fmt.Errorf("file listing %v, want [%s]", files, voStanding)
	}
	return nil
}

func (d *voDeploy) probe() probe { return probe{dbs: []*xmldb.DB{d.db}} }

func (d *voDeploy) close() {
	d.c.Close()
	os.RemoveAll(d.dataDir) //nolint:errcheck // best-effort scratch cleanup
}

type wsrfVO struct {
	g, quiet *gridbox.WSRFGridClient
	dir      wsa.EPR
	res      wsa.EPR
}

func (w *wsrfVO) available() ([]gridbox.Site, error) { return w.g.GetAvailableResources(voApp) }

func (w *wsrfVO) reserve(host string) (err error) {
	w.res, err = w.g.MakeReservation(host)
	return err
}

func (w *wsrfVO) upload(_, name, content string) error { return w.g.UploadFile(w.dir, name, content) }

func (w *wsrfVO) instantiate(string) (wsa.EPR, error) { return w.g.InstantiateJob(voJob, w.res, w.dir) }

func (w *wsrfVO) deleteFile(name string) error { return w.g.DeleteFile(w.dir, name) }

func (w *wsrfVO) listFiles() ([]string, error) { return w.g.ListFiles(w.dir) }

func (w *wsrfVO) destroyJob(job wsa.EPR) error { return w.quiet.DestroyJob(job) }

func (w *wsrfVO) release(string) error { return w.quiet.DestroyReservation(w.res) }

func (w *wsrfVO) removeFile(name string) error { return w.quiet.DeleteFile(w.dir, name) }

type wstVO struct{ g, quiet *gridbox.WSTGridClient }

func (w *wstVO) available() ([]gridbox.Site, error) { return w.g.GetAvailableResources(voApp) }

func (w *wstVO) reserve(host string) error { return w.g.MakeReservation(host) }

func (w *wstVO) upload(host, name, content string) error {
	_, err := w.g.UploadFile(host, name, content)
	return err
}

func (w *wstVO) instantiate(host string) (wsa.EPR, error) { return w.g.InstantiateJob(voJob, host) }

func (w *wstVO) deleteFile(name string) error { return w.g.DeleteFile(name) }

func (w *wstVO) listFiles() ([]string, error) { return w.g.ListFiles() }

func (w *wstVO) destroyJob(job wsa.EPR) error { return w.quiet.DeleteJob(job) }

func (w *wstVO) release(host string) error { return w.quiet.UnreserveResource(host) }

func (w *wstVO) removeFile(name string) error { return w.quiet.DeleteFile(name) }
