package gridbox

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/procsim"
	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wst"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// WSTVOConfig parameterizes the WS-Transfer-flavor VO: "there are four
// services (Account, Data, Resource Allocation/Reservation and
// Execution) and two clients (grid user and admin client)" (§4.2.2).
type WSTVOConfig struct {
	DB *xmldb.DB
	// DataRoot is the filesystem root for user file storage — "the Data
	// Service … stores the files on the file system" (§4.2.2).
	DataRoot string
	// AdminDN restricts Create/Delete on the account service and site
	// management ("Create() and Delete() are administrative functions
	// and can be called only from the administrative client", §4.2.2).
	AdminDN string
	// Local performs inter-service outcalls.
	Local *container.Client
	// EventStore persists the execution service's WS-Eventing
	// subscriptions (Plumbwork's flat XML file).
	EventStore *wse.Store
}

// WSTVO is a running WS-Transfer-flavor Grid-in-a-Box.
type WSTVO struct {
	cfg WSTVOConfig
	c   *container.Container

	Accounts *wst.Service
	Procs    *procsim.Table
	Source   *wse.Source
}

// Collections used by the WS-Transfer VO.
const (
	colWSTAccounts     = "wst-accounts"
	colWSTSites        = "wst-sites"
	colWSTReservations = "wst-reservations"
	colWSTJobs         = "wst-jobs"
)

// Reservation-mode prefixes for the unified allocation service's Put:
// "the WS-Transfer Put() operation has 3 modes of operation depending
// on the initial symbol of the EPR. They are used to make a
// reservation, remove a reservation or change the time to which a site
// is reserved" (§4.2.2). Mode "1" on Get is the availability query.
const (
	ModeAvailable = "1" // Get:  "1"+application → available sites
	ModeReserve   = "+" // Put:  "+"+host        → make reservation
	ModeUnreserve = "-" // Put:  "-"+host        → remove reservation
	ModeRetime    = "~" // Put:  "~"+host        → change reserved-until
)

// TopicJobPrefix forms per-job WS-Eventing topics ("job/<id>/exited").
const TopicJobPrefix = "job/"

// InstallWSTVO wires the four services into the container at
// /account, /data, /allocation, and /execution (with the execution
// service's event source at /execution-events and its subscription
// manager at /execution-evtmgr).
func InstallWSTVO(c *container.Container, cfg WSTVOConfig) (*WSTVO, error) {
	if cfg.DB == nil || cfg.Local == nil {
		return nil, fmt.Errorf("gridbox: WSTVOConfig requires DB and Local client")
	}
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("gridbox: WSTVOConfig requires DataRoot")
	}
	if cfg.EventStore == nil {
		store, err := wse.NewStore("")
		if err != nil {
			return nil, err
		}
		cfg.EventStore = store
	}
	if err := os.MkdirAll(cfg.DataRoot, 0o755); err != nil {
		return nil, err
	}
	vo := &WSTVO{cfg: cfg, c: c, Procs: procsim.NewTable()}
	vo.Source = wse.NewSource(cfg.EventStore,
		func() string { return c.BaseURL() + "/execution-evtmgr" }, cfg.Local)
	vo.Procs.OnExit = vo.onJobExit

	// Account service: pure WS-Transfer; "the new account is stored as
	// a resource, with the EPR containing the X509 DN of the user"
	// (§4.2.2).
	vo.Accounts = &wst.Service{
		DB: cfg.DB, Collection: colWSTAccounts,
		RefSpace: NS, RefLocal: "AccountDN",
		Endpoint: func() string { return c.BaseURL() + "/account" },
		Hooks: wst.Hooks{
			OnCreate: func(ctx *container.Ctx, rep *xmlutil.Element) (string, *xmlutil.Element, error) {
				if err := vo.requireAdmin(ctx); err != nil {
					return "", nil, err
				}
				dn := rep.ChildText(NS, "DN")
				if dn == "" {
					return "", nil, soap.Faultf(soap.FaultClient, "account representation names no DN")
				}
				return dn, nil, nil
			},
			OnDelete: func(ctx *container.Ctx, id string, stored *xmlutil.Element) error {
				return vo.requireAdmin(ctx)
			},
		},
	}
	c.Register(vo.Accounts.ContainerService("/account"))

	// Data, allocation, and execution services interpret the four verbs
	// with service-specific EPR naming rules, so they are hand-rolled
	// action tables rather than plain wst.Service document CRUD.
	c.Register(&container.Service{Path: "/data", Actions: map[string]container.ActionFunc{
		wst.ActionCreate: vo.dataCreate,
		wst.ActionGet:    vo.dataGet,
		wst.ActionPut:    vo.dataPut,
		wst.ActionDelete: vo.dataDelete,
	}})
	c.Register(&container.Service{Path: "/allocation", Actions: map[string]container.ActionFunc{
		wst.ActionCreate: vo.allocCreate,
		wst.ActionGet:    vo.allocGet,
		wst.ActionPut:    vo.allocPut,
		wst.ActionDelete: vo.allocDelete,
	}})
	c.Register(&container.Service{Path: "/execution", Actions: map[string]container.ActionFunc{
		wst.ActionCreate: vo.execCreate,
		wst.ActionGet:    vo.execGet,
		wst.ActionDelete: vo.execDelete,
	}})
	c.Register(vo.Source.SourceService("/execution-events"))
	c.Register(vo.Source.ManagerService("/execution-evtmgr"))
	c.OnClose(vo.Source.TCP.Close)
	return vo, nil
}

func (vo *WSTVO) requireAdmin(ctx *container.Ctx) error {
	if vo.cfg.AdminDN == "" {
		return nil
	}
	if dn := ctx.PeerDN(); dn != vo.cfg.AdminDN {
		return soap.Faultf(soap.FaultClient, "operation requires the VO administrator, not %q", dn)
	}
	return nil
}

// wstCallerDN resolves the caller identity: the verified signer
// subject, or (in unauthenticated scenarios) a UserDN header the
// client carries as an EPR reference parameter.
func wstCallerDN(ctx *container.Ctx) string {
	if dn := ctx.PeerDN(); dn != "" {
		return dn
	}
	if id, ok := wsa.ResourceID(ctx.Envelope, NS, "UserDN"); ok {
		return id
	}
	return ""
}

// checkAccount verifies VO membership with a WS-Transfer Get against
// the account service — resource-oriented, unlike the WSRF flavor's
// accountExists web method (the §4.2.3 contrast).
func (vo *WSTVO) checkAccount(dn string) error {
	if dn == "" {
		return soap.Faultf(soap.FaultClient, "request identifies no user")
	}
	t := wst.Client{C: vo.cfg.Local}
	epr := vo.Accounts.EPRFor(dn)
	if _, err := t.Get(epr); err != nil {
		return soap.Faultf(soap.FaultClient, "user %q has no account in this VO", dn)
	}
	return nil
}

// ---- Data service (filesystem-backed) ----

// userDir is "a hash of the user DN" (§4.2.2).
func (vo *WSTVO) userDir(dn string) string {
	sum := sha256.Sum256([]byte(dn))
	return filepath.Join(vo.cfg.DataRoot, hex.EncodeToString(sum[:8]))
}

func (vo *WSTVO) fileID(ctx *container.Ctx) (string, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "FileID")
	if !ok || id == "" {
		return "", soap.Faultf(soap.FaultClient, "request carries no FileID reference property")
	}
	return id, nil
}

// filePath resolves "DN/filename" ids, confining access to the user's
// hashed directory.
func (vo *WSTVO) filePath(id string) (dir, path string, err error) {
	i := strings.LastIndex(id, "/")
	if i < 0 {
		return "", "", soap.Faultf(soap.FaultClient, "file id %q is not DN/filename", id)
	}
	dn, name := id[:i], id[i+1:]
	dir = vo.userDir(dn)
	if name == "" {
		return dir, "", nil // directory listing form
	}
	return dir, filepath.Join(dir, filepath.Base(name)), nil
}

// dataCreate uploads a file: "a WS-Transfer Create() operation is
// invoked whenever a user wants to upload a file. The EPR of the
// resource (file) is in the format user's DN/filename" (§4.2.2). The
// reservation-check outcall makes Upload a pair of calls (§4.2.3).
func (vo *WSTVO) dataCreate(ctx *container.Ctx) (*xmlutil.Element, error) {
	rep := ctx.Envelope.Body
	if rep == nil {
		return nil, soap.Faultf(soap.FaultClient, "Create carries no file representation")
	}
	dn := wstCallerDN(ctx)
	// The single reservation-check outcall: the upload representation
	// names the reserved host, and the data service asks the allocation
	// service who holds it (§4.2.2), making Upload a pair of calls.
	if err := vo.checkReservation(dn, rep.AttrValue("", "host")); err != nil {
		return nil, err
	}
	name := rep.AttrValue("", "name")
	if name == "" {
		return nil, soap.Faultf(soap.FaultClient, "file representation has no name attribute")
	}
	dir := vo.userDir(dn)
	// "All the files of a particular user are stored into the same
	// directory, so if a directory for this user does not exist yet it
	// is created automatically" (§4.2.2).
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), []byte(rep.Text), 0o644); err != nil {
		return nil, err
	}
	id := dn + "/" + name
	epr := wsa.NewEPR(vo.c.BaseURL()+"/data").WithProperty(NS, "FileID", id)
	return xmlutil.New(wst.NS, "ResourceCreated").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

// dataGet: "if the EPR ends with '/', the Get() operation returns a
// listing of all the files in the directory specified. Otherwise Get()
// interprets the request as a download" (§4.2.2).
func (vo *WSTVO) dataGet(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.fileID(ctx)
	if err != nil {
		return nil, err
	}
	dir, path, err := vo.filePath(id)
	if err != nil {
		return nil, err
	}
	if path == "" {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return xmlutil.New(NS, "DirectoryListing"), nil //nolint:nilerr // empty dir = empty listing
		}
		listing := xmlutil.New(NS, "DirectoryListing")
		for _, e := range entries {
			if !e.IsDir() {
				listing.Add(xmlutil.NewText(NS, "File", e.Name()))
			}
		}
		return listing, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "no file %q", id)
	}
	return xmlutil.NewText(NS, "FileContent", string(data)).
		SetAttr("", "name", filepath.Base(path)), nil
}

// dataPut "overrides an existing file with a newer version" (§4.2.2).
func (vo *WSTVO) dataPut(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.fileID(ctx)
	if err != nil {
		return nil, err
	}
	_, path, err := vo.filePath(id)
	if err != nil || path == "" {
		return nil, soap.Faultf(soap.FaultClient, "Put needs a file id, got %q", id)
	}
	if _, err := os.Stat(path); err != nil {
		return nil, soap.Faultf(soap.FaultClient, "no file %q to overwrite", id)
	}
	rep := ctx.Envelope.Body
	if rep == nil {
		return nil, soap.Faultf(soap.FaultClient, "Put carries no representation")
	}
	if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
		return nil, err
	}
	return xmlutil.New(wst.NS, "PutResponse"), nil
}

// dataDelete "removes a file permanently from the file system of the
// server" (§4.2.2) — a single call, matching Figure 6's comparable
// Delete File times.
func (vo *WSTVO) dataDelete(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.fileID(ctx)
	if err != nil {
		return nil, err
	}
	_, path, err := vo.filePath(id)
	if err != nil || path == "" {
		return nil, soap.Faultf(soap.FaultClient, "Delete needs a file id, got %q", id)
	}
	if err := os.Remove(path); err != nil {
		return nil, soap.Faultf(soap.FaultClient, "no file %q", id)
	}
	return xmlutil.New(wst.NS, "DeleteResponse"), nil
}

// ---- Unified resource allocation / reservation service ----

func (vo *WSTVO) siteID(ctx *container.Ctx) (string, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "SiteID")
	if !ok || id == "" {
		return "", soap.Faultf(soap.FaultClient, "request carries no SiteID reference property")
	}
	return id, nil
}

// allocCreate "creates the representation of a new computing site" (§4.2.2).
func (vo *WSTVO) allocCreate(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.requireAdmin(ctx); err != nil {
		return nil, err
	}
	site, err := ParseSite(ctx.Envelope.Body)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad site: %v", err)
	}
	if err := vo.cfg.DB.PutContext(ctx.Context, colWSTSites, site.Host, site.Element()); err != nil {
		return nil, err
	}
	epr := wsa.NewEPR(vo.c.BaseURL()+"/allocation").WithProperty(NS, "SiteID", site.Host)
	return xmlutil.New(wst.NS, "ResourceCreated").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

// allocDelete "permanently removes a computing site from the database".
func (vo *WSTVO) allocDelete(ctx *container.Ctx) (*xmlutil.Element, error) {
	if err := vo.requireAdmin(ctx); err != nil {
		return nil, err
	}
	id, err := vo.siteID(ctx)
	if err != nil {
		return nil, err
	}
	if err := vo.cfg.DB.DeleteContext(ctx.Context, colWSTSites, id); err != nil {
		if errors.Is(err, xmldb.ErrNotFound) {
			return nil, soap.Faultf(soap.FaultClient, "no site %q", id)
		}
		return nil, err
	}
	return xmlutil.New(wst.NS, "DeleteResponse"), nil
}

// allocGet mode-switches on the EPR's first character: "if the EPR
// starts with '1', the get is interpreted as a get available resources
// query … Otherwise, the Get() is a request to check which user has a
// reservation to a particular computing site" (§4.2.2).
func (vo *WSTVO) allocGet(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.siteID(ctx)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(id, ModeAvailable) {
		app := id[len(ModeAvailable):]
		if err := vo.checkAccount(wstCallerDN(ctx)); err != nil {
			return nil, err
		}
		return vo.availableSites(ctx.Context, app)
	}
	doc, err := vo.cfg.DB.GetContext(ctx.Context, colWSTReservations, id)
	if err != nil {
		if errors.Is(err, xmldb.ErrNotFound) {
			return nil, soap.Faultf(soap.FaultClient, "site %q is not reserved", id)
		}
		return nil, err
	}
	return xmlutil.NewText(NS, "ReservedBy", doc.ChildText(NS, "Owner")), nil
}

func (vo *WSTVO) availableSites(ctx context.Context, app string) (*xmlutil.Element, error) {
	hosts, err := vo.cfg.DB.IDsContext(ctx, colWSTSites)
	if err != nil {
		return nil, err
	}
	resp := xmlutil.New(NS, "AvailableResources")
	for _, host := range hosts {
		if ok, _ := vo.cfg.DB.ExistsContext(ctx, colWSTReservations, host); ok {
			continue
		}
		doc, err := vo.cfg.DB.GetContext(ctx, colWSTSites, host)
		if err != nil {
			continue
		}
		site, err := ParseSite(doc)
		if err != nil || !site.HasApplication(app) {
			continue
		}
		resp.Add(site.Element())
	}
	return resp, nil
}

// allocPut mode-switches on the EPR's initial symbol: make, remove, or
// re-time a reservation. Lifetime is fully manual on this stack:
// "since WS-Transfer lacks such concepts, reservation lifetimes must
// be managed manually. A failure to destroy a reservation after a job
// is finished would prevent the subsequent use of that execution
// resource" (§4.2.3).
func (vo *WSTVO) allocPut(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, err := vo.siteID(ctx)
	if err != nil {
		return nil, err
	}
	if len(id) < 2 {
		return nil, soap.Faultf(soap.FaultClient, "Put EPR %q has no mode prefix", id)
	}
	mode, host := id[:1], id[1:]
	switch mode {
	case ModeReserve:
		dn := wstCallerDN(ctx)
		if err := vo.checkAccount(dn); err != nil {
			return nil, err
		}
		if ok, _ := vo.cfg.DB.ExistsContext(ctx.Context, colWSTSites, host); !ok {
			return nil, soap.Faultf(soap.FaultClient, "no such site %q", host)
		}
		res := xmlutil.New(NS, "Reservation").Add(
			xmlutil.NewText(NS, "Host", host),
			xmlutil.NewText(NS, "Owner", dn),
			xmlutil.NewText(NS, "Until", time.Now().Add(DefaultReservationDelta).UTC().Format(time.RFC3339)),
		)
		if err := vo.cfg.DB.CreateContext(ctx.Context, colWSTReservations, host, res); err != nil {
			if errors.Is(err, xmldb.ErrExists) {
				return nil, soap.Faultf(soap.FaultClient, "site %q is already reserved", host)
			}
			return nil, err
		}
	case ModeUnreserve:
		if err := vo.cfg.DB.DeleteContext(ctx.Context, colWSTReservations, host); err != nil {
			if errors.Is(err, xmldb.ErrNotFound) {
				return nil, soap.Faultf(soap.FaultClient, "site %q is not reserved", host)
			}
			return nil, err
		}
	case ModeRetime:
		until := ctx.Envelope.Body.ChildText(NS, "Until")
		if until == "" {
			return nil, soap.Faultf(soap.FaultClient, "re-time Put carries no Until")
		}
		doc, err := vo.cfg.DB.GetContext(ctx.Context, colWSTReservations, host)
		if err != nil {
			if errors.Is(err, xmldb.ErrNotFound) {
				return nil, soap.Faultf(soap.FaultClient, "site %q is not reserved", host)
			}
			return nil, err
		}
		if u := doc.Child(NS, "Until"); u != nil {
			u.Text = until
		} else {
			doc.Add(xmlutil.NewText(NS, "Until", until))
		}
		if err := vo.cfg.DB.UpdateContext(ctx.Context, colWSTReservations, host, doc); err != nil {
			return nil, err
		}
	default:
		return nil, soap.Faultf(soap.FaultClient, "unknown Put mode %q", mode)
	}
	return xmlutil.New(wst.NS, "PutResponse"), nil
}

// checkReservation faults unless dn holds the reservation for host —
// the data/execution services' gate: reservation ownership is checked
// with a WS-Transfer Get against the unified allocation service
// (§4.2.2).
func (vo *WSTVO) checkReservation(dn, host string) error {
	if dn == "" {
		return soap.Faultf(soap.FaultClient, "request identifies no user")
	}
	if host == "" {
		return soap.Faultf(soap.FaultClient, "request names no reserved host")
	}
	t := wst.Client{C: vo.cfg.Local}
	epr := wsa.NewEPR(vo.c.BaseURL()+"/allocation").WithProperty(NS, "SiteID", host)
	resp, err := t.Get(epr)
	if err != nil {
		return soap.Faultf(soap.FaultClient, "reservation check for %q failed: %v", host, err)
	}
	if owner := resp.TrimText(); owner != dn {
		return soap.Faultf(soap.FaultClient, "site %q is reserved by %q, not %q", host, owner, dn)
	}
	return nil
}

// ---- Execution service ----

// execCreate instantiates a job. One inter-service outcall (the
// reservation check against the unified allocation service) versus the
// WSRF flavor's three — the Figure 6 Instantiate Job gap.
func (vo *WSTVO) execCreate(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	if body == nil {
		return nil, soap.Faultf(soap.FaultClient, "Create carries no job submission")
	}
	spec, err := ParseJobSpec(body.Child(NS, "JobSpec"))
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "bad job spec: %v", err)
	}
	host := body.ChildText(NS, "Host")
	if host == "" {
		return nil, soap.Faultf(soap.FaultClient, "job submission names no host")
	}
	dn := wstCallerDN(ctx)
	// Outcall: "which user has a reservation to a particular computing
	// site … used by the Data service and the Execution service to make
	// sure that the user who wants to use them has a reservation".
	t := wst.Client{C: vo.cfg.Local}
	resEPR := wsa.NewEPR(vo.c.BaseURL()+"/allocation").WithProperty(NS, "SiteID", host)
	resResp, err := t.Get(resEPR)
	if err != nil {
		return nil, soap.Faultf(soap.FaultClient, "reservation check failed: %v", err)
	}
	if owner := resResp.TrimText(); dn != "" && owner != dn {
		return nil, soap.Faultf(soap.FaultClient, "site %q is reserved by %q, not %q", host, owner, dn)
	}

	workDir := vo.userDir(dn)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	// The representation persists independently of the active entity:
	// "the representation of the resource may remain even when the
	// resource (e.g., process) does not exist anymore" (§3.2). It is
	// stored before the spawn so a fast job cannot outrun its own
	// bookkeeping.
	procID := uuid.NewString()
	rep := xmlutil.New(NS, "Job").Add(
		xmlutil.NewText(NS, "Host", host),
		xmlutil.NewText(NS, "Owner", dn),
		spec.Element(),
	)
	if err := vo.cfg.DB.CreateContext(ctx.Context, colWSTJobs, procID, rep); err != nil {
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
		// Surface a failed rollback of the stored representation beside
		// the spawn failure instead of dropping it.
		if derr := vo.cfg.DB.DeleteContext(ctx.Context, colWSTJobs, procID); derr != nil && !errors.Is(derr, xmldb.ErrNotFound) {
			return nil, errors.Join(err, fmt.Errorf("representation rollback failed: %w", derr))
		}
		return nil, err
	}
	epr := vo.jobEPR(procID)
	return xmlutil.New(wst.NS, "ResourceCreated").Add(
		epr.Element(wsa.NS, "EndpointReference")), nil
}

func (vo *WSTVO) jobEPR(id string) wsa.EPR {
	return wsa.NewEPR(vo.c.BaseURL()+"/execution").WithProperty(NS, "JobID", id)
}

// execGet returns the job representation augmented with live status
// from the process table.
func (vo *WSTVO) execGet(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "JobID")
	if !ok {
		return nil, soap.Faultf(soap.FaultClient, "request carries no JobID")
	}
	rep, err := vo.cfg.DB.GetContext(ctx.Context, colWSTJobs, id)
	if err != nil {
		if errors.Is(err, xmldb.ErrNotFound) {
			return nil, soap.Faultf(soap.FaultClient, "no job %q", id)
		}
		return nil, err
	}
	status := xmlutil.New(NS, "Status")
	if st, ok := vo.Procs.Get(id); ok {
		status.Add(
			xmlutil.NewText(NS, "State", st.State.String()),
			xmlutil.NewText(NS, "ExitCode", strconv.Itoa(st.ExitCode)),
			xmlutil.NewText(NS, "RunTimeMS", strconv.FormatInt(st.RunTime(time.Now()).Milliseconds(), 10)),
		)
	} else {
		status.Add(xmlutil.NewText(NS, "State", "unknown"))
	}
	rep.Add(status)
	return rep, nil
}

// execDelete resolves the §3.2 Delete ambiguity the service's way:
// deleting the job resource terminates the process AND removes the
// representation.
func (vo *WSTVO) execDelete(ctx *container.Ctx) (*xmlutil.Element, error) {
	id, ok := wsa.ResourceID(ctx.Envelope, NS, "JobID")
	if !ok {
		return nil, soap.Faultf(soap.FaultClient, "request carries no JobID")
	}
	if err := vo.cfg.DB.DeleteContext(ctx.Context, colWSTJobs, id); err != nil {
		if errors.Is(err, xmldb.ErrNotFound) {
			return nil, soap.Faultf(soap.FaultClient, "no job %q", id)
		}
		return nil, err
	}
	// The representation is gone; an unknown process means the entity
	// was already cleaned up, anything else must fault the Delete.
	if err := vo.Procs.Kill(id); err != nil && !errors.Is(err, procsim.ErrNoProcess) {
		return nil, err
	}
	if err := vo.Procs.Remove(id); err != nil && !errors.Is(err, procsim.ErrNoProcess) {
		return nil, err
	}
	return xmlutil.New(wst.NS, "DeleteResponse"), nil
}

// onJobExit publishes the per-job completion event, containing the job
// EPR as the WSRF flavor's notification does.
func (vo *WSTVO) onJobExit(st procsim.Status) {
	msg := xmlutil.New(NS, "JobExited").Add(
		xmlutil.NewText(NS, "JobID", st.ID),
		xmlutil.NewText(NS, "ExitCode", strconv.Itoa(st.ExitCode)),
		vo.jobEPR(st.ID).Element(NS, "JobEPR"),
	)
	// Publishing runs off a process-exit callback, so there is no
	// request context and no fault channel; per-subscriber outcomes
	// land in the source's health ledger.
	//lint:ignore ogsalint/soapfault delivery faults are recorded per-subscriber in the source's health ledger
	_, _ = vo.Source.Publish(TopicJobPrefix+st.ID+"/exited", msg)
}
