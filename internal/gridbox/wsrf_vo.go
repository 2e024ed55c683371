package gridbox

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/procsim"
	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/wsa"
	"altstacks/internal/wsn"
	"altstacks/internal/wsrf"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/wsrf/rp"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// Application-defined action URIs of the WSRF flavor. Following the
// paper (§4.2.3), Account and ResourceAllocation interactions are NOT
// mapped to resource operations: they are ordinary web methods
// ("instead opting for operations like addAccount, accountExists,
// etc."), while reservations, directories, and jobs are WS-Resources.
const (
	ActionAddAccount    = NS + "/wsrf/AddAccount"
	ActionAccountExists = NS + "/wsrf/AccountExists"
	ActionRemoveAccount = NS + "/wsrf/RemoveAccount"
	ActionRegisterSite  = NS + "/wsrf/RegisterSite"
	ActionGetAvailable  = NS + "/wsrf/GetAvailableResources"
	ActionMakeRes       = NS + "/wsrf/MakeReservation"
	ActionCreateDir     = NS + "/wsrf/CreateDirectory"
	ActionUpload        = NS + "/wsrf/UploadFile"
	ActionDownload      = NS + "/wsrf/DownloadFile"
	ActionDeleteFile    = NS + "/wsrf/DeleteFile"
	ActionStartJob      = NS + "/wsrf/StartJob"
)

// TopicJobExited is the WS-Notification topic for job completion.
const TopicJobExited = "JobExited"

// WSRFVOConfig parameterizes a WSRF-flavor VO deployment.
type WSRFVOConfig struct {
	DB *xmldb.DB
	// DataRoot is the filesystem root under which directory resources
	// are materialized.
	DataRoot string
	// AdminDN, when set, restricts administrative operations (account
	// management, site registration) to that authenticated identity.
	AdminDN string
	// ReservationDelta is the initial reservation lifetime.
	ReservationDelta time.Duration
	// Local performs inter-service outcalls (and signs them when the
	// VO runs with message security — each outcall is a signed exchange,
	// "the number of web service outcalls (and message signings)
	// triggered on the server" being Figure 6's dominant cost, §4.2.3).
	Local *container.Client
}

// WSRFVO is a running WSRF-flavor Grid-in-a-Box: the five services of
// paper Figure 5 on the WSRF/WS-Notification stack.
type WSRFVO struct {
	cfg WSRFVOConfig
	c   *container.Container

	Reservations *wsrf.Home
	Dirs         *wsrf.Home
	Jobs         *wsrf.Home
	Procs        *procsim.Table
	Producer     *wsn.Producer
	Sweeper      *rl.Sweeper

	// cleanupErrors counts failed best-effort teardown outcalls (the
	// automatic unreserve of §4.2.1) that have no request to fault to.
	cleanupErrors atomic.Int64
}

// CleanupErrors reports how many background teardown steps (automatic
// unreserve on job exit) have failed since the VO started.
func (vo *WSRFVO) CleanupErrors() int64 { return vo.cleanupErrors.Load() }

// noteCleanupError records a failed background teardown step.
func (vo *WSRFVO) noteCleanupError(error) { vo.cleanupErrors.Add(1) }

// Collections used by the WSRF VO.
const (
	colAccounts     = "wsrf-accounts"
	colSites        = "wsrf-sites"
	colReservations = "wsrf-reservations"
	colDirs         = "wsrf-directories"
	colJobs         = "wsrf-jobs"
)

// InstallWSRFVO wires the five services into the container:
// /account, /allocation, /reservation, /data, /exec (plus the exec
// service's subscription manager at /exec-submgr).
func InstallWSRFVO(c *container.Container, cfg WSRFVOConfig) (*WSRFVO, error) {
	if cfg.DB == nil || cfg.Local == nil {
		return nil, fmt.Errorf("gridbox: WSRFVOConfig requires DB and Local client")
	}
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("gridbox: WSRFVOConfig requires DataRoot")
	}
	if cfg.ReservationDelta == 0 {
		cfg.ReservationDelta = DefaultReservationDelta
	}
	if err := os.MkdirAll(cfg.DataRoot, 0o755); err != nil {
		return nil, err
	}
	vo := &WSRFVO{cfg: cfg, c: c, Procs: procsim.NewTable()}

	vo.Reservations = &wsrf.Home{
		DB: cfg.DB, Collection: colReservations,
		RefSpace: NS, RefLocal: "ReservationID",
		Endpoint: func() string { return c.BaseURL() + "/reservation" },
	}
	vo.Reservations.DefineProperty(wsrf.StateChildProperty(NS, "Host"))
	vo.Reservations.DefineProperty(wsrf.StateChildProperty(NS, "Owner"))

	vo.Dirs = &wsrf.Home{
		DB: cfg.DB, Collection: colDirs,
		RefSpace: NS, RefLocal: "DirectoryID",
		Endpoint: func() string { return c.BaseURL() + "/data" },
		// "The DataService uses the Destroy method to remove a directory
		// and its contents from the remote filesystem" (§4.2.1).
		OnDestroy: func(r *wsrf.Resource) error {
			return os.RemoveAll(vo.dirPath(r))
		},
	}
	// "The DataService resources use Resource Properties to expose the
	// files contained within each directory resource … these resource
	// properties are generated dynamically by examining the contents
	// [of the] directory" (§4.2.1/§4.2.3).
	vo.Dirs.DefineProperty(wsrf.PropertyDef{
		Name: xml.Name{Space: NS, Local: "File"},
		Get: func(r *wsrf.Resource) []*xmlutil.Element {
			entries, err := os.ReadDir(vo.dirPath(r))
			if err != nil {
				return nil
			}
			var out []*xmlutil.Element
			for _, e := range entries {
				if !e.IsDir() {
					out = append(out, xmlutil.NewText(NS, "File", e.Name()))
				}
			}
			return out
		},
	})
	vo.Dirs.DefineProperty(wsrf.StateChildProperty(NS, "Path"))

	vo.Jobs = &wsrf.Home{
		DB: cfg.DB, Collection: colJobs,
		RefSpace: NS, RefLocal: "JobID",
		Endpoint: func() string { return c.BaseURL() + "/exec" },
		// "WSRF's Destroy method will kill a job if it is running and
		// then cleanup the information about the process' exit state"
		// (§4.2.1).
		OnDestroy: func(r *wsrf.Resource) error {
			procID := r.State.ChildText(NS, "ProcID")
			if procID == "" {
				return nil
			}
			// An unknown process just means the exit-state record was
			// already cleaned; anything else must fault the Destroy.
			if err := vo.Procs.Kill(procID); err != nil {
				if errors.Is(err, procsim.ErrNoProcess) {
					return nil
				}
				return err
			}
			if err := vo.Procs.Remove(procID); err != nil && !errors.Is(err, procsim.ErrNoProcess) {
				return err
			}
			return nil
		},
	}
	vo.Jobs.DefineProperty(wsrf.PropertyDef{
		Name: xml.Name{Space: NS, Local: "Status"},
		Get:  func(r *wsrf.Resource) []*xmlutil.Element { return vo.jobStatusProps(r) },
	})

	vo.Producer = wsn.NewProducer(cfg.DB, "wsrf-exec-subscriptions",
		func() string { return c.BaseURL() + "/exec-submgr" }, cfg.Local)

	vo.Procs.OnExit = vo.onJobExit

	// Account service: plain web methods, no WS-Resources ("the
	// WS-Resource concept is not utilized", §4.2.1).
	c.Register(&container.Service{Path: "/account", Actions: map[string]container.ActionFunc{
		ActionAddAccount:    vo.addAccount,
		ActionAccountExists: vo.accountExists,
		ActionRemoveAccount: vo.removeAccount,
	}})

	// Resource allocation service: plain web methods over site state.
	c.Register(&container.Service{Path: "/allocation", Actions: map[string]container.ActionFunc{
		ActionRegisterSite: vo.registerSite,
		ActionGetAvailable: vo.getAvailable,
	}})

	// Reservation service: reservations as WS-Resources with resource
	// properties and scheduled termination.
	resSvc := &container.Service{Path: "/reservation", Actions: map[string]container.ActionFunc{
		ActionMakeRes: vo.makeReservation,
	}}
	wsrf.Aggregate(resSvc, &rp.PortType{Home: vo.Reservations}, rl.NewPortType(vo.Reservations))
	c.Register(resSvc)

	// Data service: directories as WS-Resources.
	dataSvc := &container.Service{Path: "/data", Actions: map[string]container.ActionFunc{
		ActionCreateDir:  vo.createDirectory,
		ActionUpload:     vo.uploadFile,
		ActionDownload:   vo.downloadFile,
		ActionDeleteFile: vo.deleteFile,
	}}
	wsrf.Aggregate(dataSvc, &rp.PortType{Home: vo.Dirs}, rl.NewPortType(vo.Dirs))
	c.Register(dataSvc)

	// Exec service: jobs as WS-Resources, plus the notification
	// producer for job-exit events.
	execSvc := &container.Service{Path: "/exec", Actions: map[string]container.ActionFunc{
		ActionStartJob: vo.startJob,
	}}
	wsrf.Aggregate(execSvc, &rp.PortType{Home: vo.Jobs}, rl.NewPortType(vo.Jobs),
		vo.Producer.ProducerPortType())
	c.Register(execSvc)
	c.Register(vo.Producer.ManagerService("/exec-submgr"))

	// Lifetime management: the reservation sweeper enforces scheduled
	// termination of unclaimed reservations.
	vo.Sweeper = rl.NewSweeper(time.Second)
	vo.Sweeper.Watch(vo.Reservations)
	vo.Sweeper.Start()
	c.OnClose(vo.Sweeper.Stop)
	return vo, nil
}

func (vo *WSRFVO) dirPath(r *wsrf.Resource) string {
	return filepath.Join(vo.cfg.DataRoot, filepath.Base(r.State.ChildText(NS, "Path")))
}

// callerDN resolves the request identity: the verified certificate
// subject under message security, else the self-asserted UserDN
// element (the unauthenticated scenarios).
func callerDN(ctx *container.Ctx) string {
	if dn := ctx.PeerDN(); dn != "" {
		return dn
	}
	if ctx.Envelope.Body != nil {
		return ctx.Envelope.Body.ChildText(NS, "UserDN")
	}
	return ""
}

func (vo *WSRFVO) requireAdmin(ctx *container.Ctx) error {
	if vo.cfg.AdminDN == "" {
		return nil
	}
	if dn := ctx.PeerDN(); dn != vo.cfg.AdminDN {
		return soap.Faultf(soap.FaultClient, "operation requires the VO administrator, not %q", dn)
	}
	return nil
}

// ---- Account service ----

func (vo *WSRFVO) addAccount(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.requireAdmin(ctx); err != nil {
		return nil, err
	}
	dn := ctx.Envelope.Body.ChildText(NS, "DN")
	if dn == "" {
		return nil, soap.Faultf(soap.FaultClient, "AddAccount names no DN")
	}
	doc := xmlutil.New(NS, "Account").Add(xmlutil.NewText(NS, "DN", dn))
	for _, p := range ctx.Envelope.Body.ChildrenNamed(NS, "Privilege") {
		doc.Add(xmlutil.NewText(NS, "Privilege", p.TrimText()))
	}
	if err := vo.cfg.DB.PutContext(ctx.Context, colAccounts, dn, doc); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "AddAccountResponse"), nil
}

func (vo *WSRFVO) accountExists(ctx *container.Ctx) (*xmlutil.Element, error) {
	dn := ctx.Envelope.Body.ChildText(NS, "DN")
	ok, err := vo.cfg.DB.ExistsContext(ctx.Context, colAccounts, dn)
	if err != nil {
		return nil, err
	}
	return xmlutil.NewText(NS, "AccountExistsResponse", strconv.FormatBool(ok)), nil
}

func (vo *WSRFVO) removeAccount(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.requireAdmin(ctx); err != nil {
		return nil, err
	}
	dn := ctx.Envelope.Body.ChildText(NS, "DN")
	if err := vo.cfg.DB.DeleteContext(ctx.Context, colAccounts, dn); err != nil {
		if errors.Is(err, xmldb.ErrNotFound) {
			return nil, soap.Faultf(soap.FaultClient, "no account %q", dn)
		}
		return nil, err
	}
	return xmlutil.New(NS, "RemoveAccountResponse"), nil
}

// checkAccount performs the inter-service account verification (paper
// Figure 5: "Does this user have an account in this VO?") — a real,
// signed SOAP outcall to the Account service.
func (vo *WSRFVO) checkAccount(dn string) error {
	if dn == "" {
		return soap.Faultf(soap.FaultClient, "request identifies no user")
	}
	body := xmlutil.New(NS, "AccountExists").Add(xmlutil.NewText(NS, "DN", dn))
	resp, err := vo.cfg.Local.Call(vo.c.EPR("/account"), ActionAccountExists, body)
	if err != nil {
		return fmt.Errorf("gridbox: account check: %w", err)
	}
	if resp.TrimText() != "true" {
		return soap.Faultf(soap.FaultClient, "user %q has no account in this VO", dn)
	}
	return nil
}

// ---- Resource allocation service ----

func (vo *WSRFVO) registerSite(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.requireAdmin(ctx); err != nil {
		return nil, err
	}
	site, err := ParseSite(ctx.Envelope.Body.Child(NS, "Site"))
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad site: %v", err)
	}
	if err := vo.cfg.DB.PutContext(ctx.Context, colSites, site.Host, site.Element()); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "RegisterSiteResponse"), nil
}

// getAvailable returns sites with the application installed and no
// live reservation — paper Figure 5 step 1, with the account check
// outcall of step "Does this user have an account in this VO?".
func (vo *WSRFVO) getAvailable(ctx *container.Ctx) (*xmlutil.Element, error) {
	app := ctx.Envelope.Body.ChildText(NS, "Application")
	if app == "" {
		return nil, soap.Faultf(soap.FaultClient, "GetAvailableResources names no application")
	}
	if err := vo.checkAccount(callerDN(ctx)); err != nil {
		return nil, err
	}
	reserved, err := vo.reservedHosts(ctx.Context)
	if err != nil {
		return nil, err
	}
	ids, err := vo.cfg.DB.IDsContext(ctx.Context, colSites)
	if err != nil {
		return nil, err
	}
	resp := xmlutil.New(NS, "GetAvailableResourcesResponse")
	for _, host := range ids {
		doc, err := vo.cfg.DB.GetContext(ctx.Context, colSites, host)
		if err != nil {
			continue
		}
		site, err := ParseSite(doc)
		if err != nil || !site.HasApplication(app) || reserved[host] {
			continue
		}
		resp.Add(site.Element())
	}
	return resp, nil
}

func (vo *WSRFVO) reservedHosts(ctx context.Context) (map[string]bool, error) {
	ids, err := vo.Reservations.DB.IDsContext(ctx, vo.Reservations.Collection)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, id := range ids {
		r, err := vo.Reservations.LoadContext(ctx, id)
		if err != nil {
			continue
		}
		out[r.State.ChildText(NS, "Host")] = true
	}
	return out, nil
}

// ---- Reservation service ----

// makeReservation creates a reservation WS-Resource under the caller's
// DN with scheduled termination now+delta (paper §4.2.1).
func (vo *WSRFVO) makeReservation(ctx *container.Ctx) (*xmlutil.Element, error) {
	host := ctx.Envelope.Body.ChildText(NS, "Host")
	dn := callerDN(ctx)
	if host == "" {
		return nil, soap.Faultf(soap.FaultClient, "MakeReservation names no host")
	}
	if err := vo.checkAccount(dn); err != nil {
		return nil, err
	}
	if ok, err := vo.cfg.DB.ExistsContext(ctx.Context, colSites, host); err != nil || !ok {
		return nil, soap.Faultf(soap.FaultClient, "no such site %q", host)
	}
	reserved, err := vo.reservedHosts(ctx.Context)
	if err != nil {
		return nil, err
	}
	if reserved[host] {
		return nil, soap.Faultf(soap.FaultClient, "site %q is already reserved", host)
	}
	state := xmlutil.New(NS, "Reservation").Add(
		xmlutil.NewText(NS, "Host", host),
		xmlutil.NewText(NS, "Owner", dn),
	)
	epr, err := vo.Reservations.CreateContext(ctx.Context, state)
	if err != nil {
		return nil, err
	}
	id, _ := epr.Property(NS, "ReservationID")
	if err := vo.Reservations.MutateContext(ctx.Context, id, func(r *wsrf.Resource) error {
		r.Termination = time.Now().Add(vo.cfg.ReservationDelta)
		return nil
	}); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "MakeReservationResponse").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

// ---- Data service ----

func (vo *WSRFVO) createDirectory(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.checkAccount(callerDN(ctx)); err != nil {
		return nil, err
	}
	name := uuid.NewString()
	if err := os.MkdirAll(filepath.Join(vo.cfg.DataRoot, name), 0o755); err != nil {
		return nil, err
	}
	state := xmlutil.New(NS, "Directory").Add(xmlutil.NewText(NS, "Path", name))
	epr, err := vo.Dirs.CreateContext(ctx.Context, state)
	if err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "CreateDirectoryResponse").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

func (vo *WSRFVO) uploadFile(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.Dirs.ResourceID(ctx.Envelope)
	if err != nil {
		return nil, err
	}
	// The account-check outcall makes Upload "a pair of calls" (§4.2.3).
	if err := vo.checkAccount(callerDN(ctx)); err != nil {
		return nil, err
	}
	fileEl := ctx.Envelope.Body.Child(NS, "FileContent")
	name := ctx.Envelope.Body.ChildText(NS, "FileName")
	if fileEl == nil || name == "" {
		return nil, soap.Faultf(soap.FaultClient, "UploadFile needs FileName and FileContent")
	}
	var dir string
	err = vo.Dirs.ViewContext(ctx.Context, id, func(r *wsrf.Resource) error {
		dir = vo.dirPath(r)
		return nil
	})
	if err != nil {
		return nil, mapUnknown(err, "directory", id)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), []byte(fileEl.Text), 0o644); err != nil {
		return nil, err
	}
	return xmlutil.New(NS, "UploadFileResponse"), nil
}

func (vo *WSRFVO) downloadFile(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.Dirs.ResourceID(ctx.Envelope)
	if err != nil {
		return nil, err
	}
	name := ctx.Envelope.Body.ChildText(NS, "FileName")
	if name == "" {
		return nil, soap.Faultf(soap.FaultClient, "DownloadFile names no file")
	}
	var dir string
	err = vo.Dirs.ViewContext(ctx.Context, id, func(r *wsrf.Resource) error {
		dir = vo.dirPath(r)
		return nil
	})
	if err != nil {
		return nil, mapUnknown(err, "directory", id)
	}
	data, err := os.ReadFile(filepath.Join(dir, filepath.Base(name)))
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "no file %q in directory", name)
	}
	return xmlutil.NewText(NS, "DownloadFileResponse", string(data)), nil
}

// deleteFile removes one file from a directory resource — a single
// call, matching Figure 6's comparable Delete File row ("the Delete
// File operation involves a single call in both implementations",
// §4.2.3).
func (vo *WSRFVO) deleteFile(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.Dirs.ResourceID(ctx.Envelope)
	if err != nil {
		return nil, err
	}
	name := ctx.Envelope.Body.ChildText(NS, "FileName")
	if name == "" {
		return nil, soap.Faultf(soap.FaultClient, "DeleteFile names no file")
	}
	var dir string
	err = vo.Dirs.ViewContext(ctx.Context, id, func(r *wsrf.Resource) error {
		dir = vo.dirPath(r)
		return nil
	})
	if err != nil {
		return nil, mapUnknown(err, "directory", id)
	}
	if err := os.Remove(filepath.Join(dir, filepath.Base(name))); err != nil {
		return nil, soap.Faultf(soap.FaultClient, "no file %q in directory", name)
	}
	return xmlutil.New(NS, "DeleteFileResponse"), nil
}

// ---- Exec service ----

// startJob is paper Figure 5 steps 9-11: verify the reservation, claim
// it by lengthening its lifetime, resolve the staging directory, spawn
// the process, and mint the job WS-Resource. Three signed
// inter-service outcalls — the reason Figure 6 shows WSRF Instantiate
// Job slower than WS-Transfer's ("due to the design of its services
// the WSRF implementation requires several more outcalls to
// Instantiate a Job", §4.2.3).
func (vo *WSRFVO) startJob(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	spec, err := ParseJobSpec(body.Child(NS, "JobSpec"))
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad job spec: %v", err)
	}
	resEPR, err := childEPR(body, "ReservationEPR")
	if err != nil {
		return nil, err
	}
	dirEPR, err := childEPR(body, "DataDirEPR")
	if err != nil {
		return nil, err
	}

	// Outcall 1: verify the reservation ("an ExecService uses the
	// reservation EPR to verify that the client has, in fact, reserved
	// that ExecService", §4.2.1).
	rpc := rp.Client{C: vo.cfg.Local}
	props, err := rpc.GetMultiple(resEPR, "Host", "Owner")
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "reservation rejected: %v", err)
	}
	owner := ""
	for _, p := range props {
		if p.Name.Local == "Owner" {
			owner = p.TrimText()
		}
	}
	if dn := callerDN(ctx); dn != "" && owner != dn {
		return nil, soap.Faultf(soap.FaultClient, "reservation belongs to %q, not %q", owner, dn)
	}

	// Outcall 2: claim the reservation by lengthening its lifetime to
	// infinity (§4.2.1).
	rlc := rl.Client{C: vo.cfg.Local}
	if err := rlc.SetTerminationTime(resEPR, time.Time{}); err != nil {
		return nil, soap.Faultf(soap.FaultServer, "claiming reservation: %v", err)
	}

	// Outcall 3: resolve the working directory from the data resource
	// ("the ExecService uses the associated directory as the working
	// directory for the new job", §4.2.1).
	pathVals, err := rpc.GetProperty(dirEPR, "Path")
	if err != nil || len(pathVals) != 1 {
		return nil, soap.Faultf(soap.FaultClient, "data directory rejected: %v", err)
	}
	workDir := filepath.Join(vo.cfg.DataRoot, filepath.Base(pathVals[0].TrimText()))

	// The job resource must exist before the process can terminate:
	// onJobExit reads it to find the reservation to auto-destroy.
	procID := uuid.NewString()
	state := xmlutil.New(NS, "Job").Add(
		xmlutil.NewText(NS, "ProcID", procID),
		resEPR.Element(NS, "ReservationEPR"),
		dirEPR.Element(NS, "DataDirEPR"),
	)
	jobEPR, err := vo.Jobs.CreateWithIDContext(ctx.Context, procID, state)
	if err != nil {
		return nil, err
	}
	if _, err := vo.Procs.SpawnWithID(procID, procsim.Spec{
		Command:     spec.Application,
		Args:        spec.Args,
		WorkingDir:  workDir,
		Duration:    spec.Duration,
		ExitCode:    spec.ExitCode,
		OutputFiles: spec.OutputFiles,
	}); err != nil {
		// The spawn failure is the client's fault to see; a failed
		// rollback of the just-created job resource rides along.
		if derr := vo.Jobs.DestroyContext(ctx.Context, procID); derr != nil {
			return nil, errors.Join(err, fmt.Errorf("job resource rollback failed: %w", derr))
		}
		return nil, err
	}
	return xmlutil.New(NS, "StartJobResponse").Add(
		jobEPR.Element(wsa.NS, "EndpointReference")), nil
}

// jobStatusProps computes the Status resource property from the live
// process table.
func (vo *WSRFVO) jobStatusProps(r *wsrf.Resource) []*xmlutil.Element {
	st, ok := vo.Procs.Get(r.State.ChildText(NS, "ProcID"))
	if !ok {
		return []*xmlutil.Element{xmlutil.New(NS, "Status").Add(
			xmlutil.NewText(NS, "State", "unknown"))}
	}
	el := xmlutil.New(NS, "Status").Add(
		xmlutil.NewText(NS, "State", st.State.String()),
		xmlutil.NewText(NS, "ExitCode", strconv.Itoa(st.ExitCode)),
		xmlutil.NewText(NS, "RunTimeMS", strconv.FormatInt(st.RunTime(time.Now()).Milliseconds(), 10)),
	)
	return []*xmlutil.Element{el}
}

// onJobExit sends the asynchronous completion notification ("this
// notification message will contain the job's EPR so that the client
// knows which of the potentially many jobs they are currently running,
// has ended", §4.2.1) and performs the automatic unreserve: the
// WSRF VO destroys the claimed reservation when the job ends, which is
// why Figure 6 reports no client-visible time for Unreserve Resource.
func (vo *WSRFVO) onJobExit(st procsim.Status) {
	r, err := vo.Jobs.Load(st.ID)
	if err != nil {
		return // job resource already destroyed
	}
	jobEPR := vo.Jobs.EPRFor(st.ID)
	msg := xmlutil.New(NS, TopicJobExited).Add(
		xmlutil.NewText(NS, "JobID", st.ID),
		xmlutil.NewText(NS, "ExitCode", strconv.Itoa(st.ExitCode)),
		jobEPR.Element(NS, "JobEPR"),
	)
	// Delivery runs off a process-exit callback, so there is no request
	// context and no fault channel; per-consumer outcomes land in the
	// producer's health ledger.
	//lint:ignore ogsalint/soapfault delivery faults are recorded per-subscriber in the producer's health ledger
	_, _ = vo.Producer.Notify(TopicJobExited, msg)

	// Automatic unreserve (outcall to the reservation service).
	if resEl := r.State.Child(NS, "ReservationEPR"); resEl != nil {
		if resEPR, err := wsa.ParseEPR(resEl); err == nil {
			rlc := rl.Client{C: vo.cfg.Local}
			if err := rlc.Destroy(resEPR); err != nil {
				vo.noteCleanupError(err)
			}
		}
	}
}

func childEPR(body *xmlutil.Element, local string) (wsa.EPR, error) {
	el := body.Child(NS, local)
	if el == nil {
		return wsa.EPR{}, soap.Faultf(soap.FaultClient, "request carries no %s", local)
	}
	epr, err := wsa.ParseEPR(el)
	if err != nil {
		return wsa.EPR{}, soap.Faultf(soap.FaultClient, "bad %s: %v", local, err)
	}
	return epr, nil
}

func mapUnknown(err error, kind, id string) error {
	if errors.Is(err, xmldb.ErrNotFound) {
		return soap.Faultf(soap.FaultClient, "no %s resource %q", kind, id)
	}
	return err
}
